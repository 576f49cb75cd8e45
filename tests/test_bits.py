"""Training arithmetic against stored bits: three short runs
(`tests/pin_bits.py`, which also rewrites `tests/bits.json`) give the
loss trails and final parameters the file pins. A change of summation
order, of a kernel or of a random stream shows here even where it keeps
every other test green."""

import json

import numpy as np
import pytest

from pin_bits import PATH, RTOL, RUNS, environment, float32_bits, run

BITS = json.loads(PATH.read_text(encoding="utf-8"))


def test_the_file_pins_every_run():
    assert sorted(BITS["runs"]) == sorted(RUNS)


@pytest.mark.parametrize("name", RUNS)
def test_float32_bits(name):
    """md5 of the float32 loss trail and final parameters; they hold only
    where numpy, its BLAS and the CPU's SIMD features are the file's."""
    if BITS["environment"] != environment():
        pytest.skip(f"float32 bits pinned under {BITS['environment']}")
    got = float32_bits(name)
    assert got == {k: BITS["runs"][name][k] for k in got}


@pytest.mark.parametrize("name", RUNS)
def test_float64_trail(name):
    np.testing.assert_allclose(run(name, "f8")[0],
                               BITS["runs"][name]["float64_losses"],
                               rtol=RTOL, atol=0)
