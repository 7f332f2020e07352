"""Locate the package source of the checkout this benchmark belongs to.

The benchmark measures the code of its own checkout, never an installed
copy: it imports ``offgridopt`` from ``<checkout>/src`` and stops when that
source is missing.
"""

import sys
from pathlib import Path


def package_root() -> Path:
    """Put ``<checkout>/src`` first on ``sys.path`` and return the checkout."""
    root = Path(__file__).resolve().parents[1]
    if not (root / "src" / "offgridopt" / "__init__.py").is_file():
        sys.exit(f"perfbench: no offgridopt source under {root / 'src'}")
    sys.path.insert(0, str(root / "src"))
    return root


def check_imported(root: Path) -> None:
    """Stop unless ``offgridopt`` was imported from this checkout."""
    import offgridopt

    where = Path(offgridopt.__file__).resolve()
    if not where.is_relative_to(root / "src"):
        sys.exit(f"perfbench: offgridopt imported from {where}, not {root / 'src'}")
