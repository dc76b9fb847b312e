"""Workbench for exact digit expansions, continued-fraction interval audits,
multiplicative-subgroup scans, and equidistribution statistics."""

__version__ = "0.1.0"

# The most subgroup or coset elements a report lists unless --cap says otherwise.
# Here, not in groups, so that the CLI parser builds without loading groups.
DEFAULT_ELEMENT_CAP = 1 << 16
