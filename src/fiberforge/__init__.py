"""fiberforge: exact verification of fiber and Rees ideal constructions
for Gorenstein ideals submaximally generated by quadrics."""

__version__ = "0.1.0"
