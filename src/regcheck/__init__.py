"""regcheck: classify regulatory provisions and check artifacts for compliance.

Each public name is imported from its submodule, e.g. `from regcheck.pipeline import
compliance_iter`; importing the package alone loads none of them."""

__version__ = "0.1.0"
