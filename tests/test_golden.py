"""Golden outputs: the three training configs and the two verification
suites of ``tests/golden/make.py`` must reproduce the committed files.

In the environment that made the goldens (the same Python, numpy and BLAS)
every file must match byte for byte. In another environment the bytes are
not expected to match, because a different BLAS or numpy may add in another
order. There the test compares numbers instead: every float within
``REL_BOUND`` of the golden one, every other field equal. It warns that
the byte check did not run, and it fails rather than skips.

REL_BOUND: the largest shift ever seen from a change of float summation
order was 4e-14 relative (the per-box Grams of the structured loss);
1e-9 leaves five orders of magnitude for that shift to grow over a run's
steps, while a wrong wire moves the losses in their first digits.
"""

import json
import re
import warnings
from pathlib import Path

import numpy as np

from golden import make
from structseg.checkpoint import read_blob

REL_BOUND = 1e-9
FLOAT = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def _golden_files():
    return sorted(p.relative_to(make.GOLDEN) for p in make.GOLDEN.rglob("*")
                  if p.is_file() and p.suffix in (".csv", ".bin", ".txt"))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_BOUND * max(abs(a), abs(b))


def _numbers_mismatch(golden: Path, fresh: Path):
    """The first difference beyond REL_BOUND between two output files,
    or None."""
    if golden.suffix == ".bin":
        (g_arrays, g_meta), (f_arrays, f_meta) = read_blob(golden), read_blob(fresh)
        if g_meta != f_meta or g_arrays.keys() != f_arrays.keys():
            return "header"
        for key, g in g_arrays.items():
            if g.shape != f_arrays[key].shape or not np.allclose(
                    f_arrays[key], g, rtol=REL_BOUND, atol=0.0):
                return key
        return None
    g_lines, f_lines = golden.read_text().splitlines(), fresh.read_text().splitlines()
    if len(g_lines) != len(f_lines):
        return f"{len(f_lines)} lines, not {len(g_lines)}"
    for g_line, f_line in zip(g_lines, f_lines):
        g_nums, f_nums = FLOAT.findall(g_line), FLOAT.findall(f_line)
        if (FLOAT.sub("#", g_line) != FLOAT.sub("#", f_line)
                or not all(_close(float(g), float(f)) for g, f in zip(g_nums, f_nums))):
            return f"line {f_line!r}, golden {g_line!r}"
    return None


def test_outputs_match_the_goldens(tmp_path):
    make.produce(tmp_path)
    files = _golden_files()
    assert len(files) == 3 * len(make.CONFIGS) + len(make.SUITES)
    golden_env = json.loads((make.GOLDEN / "environment.json").read_text())
    if golden_env == make.environment():
        changed = [str(f) for f in files
                   if (tmp_path / f).read_bytes() != (make.GOLDEN / f).read_bytes()]
        assert not changed, (f"not byte-identical to the goldens: {changed}; a change "
                             "that moves the bits on purpose reruns tests/golden/make.py")
        return
    warnings.warn(f"goldens made under {golden_env}, this is {make.environment()}: "
                  f"comparing numbers within {REL_BOUND:g}, not bytes")
    mismatched = {str(f): m for f in files
                  if (m := _numbers_mismatch(make.GOLDEN / f, tmp_path / f)) is not None}
    assert not mismatched, f"outputs beyond {REL_BOUND:g} of the goldens: {mismatched}"


def test_the_numbers_comparison_holds_rounding_and_catches_a_shift(tmp_path):
    """The comparison that runs in another environment: identical files and
    a last-digit change pass, a change in the sixth digit fails."""
    golden = make.GOLDEN / "preset" / "metrics.csv"
    text = golden.read_text()
    value = FLOAT.findall(text.splitlines()[1])[2]  # the first step's l_x
    fresh = tmp_path / "metrics.csv"
    for factor, ok in ((1.0, True), (1.0 + 1e-15, True), (1.0 + 1e-6, False)):
        fresh.write_text(text.replace(value, repr(float(value) * factor), 1))
        assert (_numbers_mismatch(golden, fresh) is None) == ok
    checkpoint = make.GOLDEN / "preset" / "checkpoint.bin"
    assert _numbers_mismatch(checkpoint, checkpoint) is None
