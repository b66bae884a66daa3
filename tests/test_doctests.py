import doctest
from pathlib import Path

import cycliso.congruence
import cycliso.cycle
import cycliso.green
import cycliso.monoid
import cycliso.orientation
import cycliso.partial_perm


def test_module_doctests():
    for mod in (
        cycliso.partial_perm,
        cycliso.congruence,
        cycliso.cycle,
        cycliso.green,
        cycliso.monoid,
        cycliso.orientation,
    ):
        # verbose defaults to ("-v" in sys.argv), which pytest -v would trip
        result = doctest.testmod(mod, verbose=False)
        assert result.failed == 0, mod.__name__
        assert result.attempted > 0, mod.__name__


def test_readme_examples():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    result = doctest.testfile(str(readme), module_relative=False, verbose=False)
    assert result.failed == 0
    assert result.attempted > 0
