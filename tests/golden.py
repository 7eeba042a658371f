"""Golden checks for tier-1: a missing golden file is a failure.

:func:`repro.testing.check_golden` creates a golden it cannot find and
reports ``"created"`` — right for a benchmark script's first run, wrong
for a test, which would then pass while comparing against nothing.
:func:`assert_golden` accepts only ``"checked"`` and ``"updated"``, and
removes a golden it just created so the next run fails the same way.
Record a new golden with ``REPRO_UPDATE_GOLDEN=1``.
"""

from pathlib import Path

from repro.testing import check_golden

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "benchmarks" / "golden"


def assert_golden(name: str, text: str, **tolerances) -> str:
    """``check_golden(name, text, GOLDEN_DIR, **tolerances)``, failing
    unless a committed golden was compared (or a rewrite requested)."""
    status = check_golden(name, text, GOLDEN_DIR, **tolerances)
    if status == "created":
        (GOLDEN_DIR / f"{name}.golden").unlink()
    assert status in ("checked", "updated"), (
        f"{name}: no golden file in {GOLDEN_DIR}; record one with "
        f"REPRO_UPDATE_GOLDEN=1")
    return status
