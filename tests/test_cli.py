import json
import os
import subprocess
import sys
from itertools import zip_longest

import pytest

from cycliso import (
    FiniteMonoid,
    GreenClasses,
    build_by_restrictions,
    build_R,
    cardinality_formula,
    green_LRH,
)
import cycliso.congruence
import cycliso.monoid
from cycliso import cli
from cycliso.cli import BUILDERS, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_csv(capsys):
    code, out, _ = run(capsys, "count", "--n", "3..6", "--check-formula")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,enumerated,formula,match"
    assert lines[1] == "3,34,34,true"
    assert lines[4] == "6,703,703,true"


def test_count_single_n(capsys):
    code, out, _ = run(capsys, "count", "--n", "4")
    assert code == 0
    assert "4,97,97,true" in out


def test_count_is_byte_deterministic(capsys):
    _, out1, _ = run(capsys, "count", "--n", "3..5")
    _, out2, _ = run(capsys, "count", "--n", "3..5")
    assert out1 == out2


def test_enumerate_to_file(tmp_path, capsys):
    out = tmp_path / "m3.jsonl"
    code, _, _ = run(capsys, "enumerate", "--n", "3", "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().splitlines()
    m = build_by_restrictions(3)
    assert len(lines) == len(m)
    assert [json.loads(x) for x in lines] == [a.to_json() for a in m.elements]
    # a rerun must reproduce the same bytes
    first = out.read_bytes()
    run(capsys, "enumerate", "--n", "3", "--out", str(out))
    assert out.read_bytes() == first


@pytest.mark.parametrize(
    "argv, code",
    [
        (["enumerate", "--n", "5", "--cache-dir", "CACHE"], 2),
        (["rank", "--n", "3", "--jobs", "2"], 2),
        (["enumerate", "--n", "5"], 0),
    ],
    ids=["cache-dir-flag", "jobs-flag", "cache-env-var"],
)
def test_no_cache_or_jobs_knobs(argv, code, tmp_path, monkeypatch, capsys):
    cache = tmp_path / "cache"
    cache.mkdir()
    argv = [str(cache) if a == "CACHE" else a for a in argv]

    def outcome():
        try:
            got = main(argv)
        except SystemExit as exc:
            got = exc.code
        return got, capsys.readouterr()

    plain_code, plain = outcome()
    monkeypatch.setenv("CYCLISO_CACHE_DIR", str(cache))
    env_code, with_env = outcome()
    assert plain_code == env_code == code
    assert plain.out == with_env.out
    if code == 2:
        assert "unrecognized arguments" in with_env.err
    else:
        assert len(plain.out.splitlines()) == cardinality_formula(5)
    assert not any(cache.iterdir())


def test_enumerate_methods_agree(capsys):
    _, by_restriction, _ = run(capsys, "enumerate", "--n", "4")
    _, by_closure, _ = run(capsys, "enumerate", "--n", "4", "--method", "closure")
    _, by_scan, _ = run(capsys, "enumerate", "--n", "4", "--method", "bruteforce")
    assert by_restriction == by_closure == by_scan


@pytest.mark.parametrize(
    "n, method",
    [(n, method) for n in [3, 4, 5, 6] for method in ["restrictions", "closure", "bruteforce"]]
    # two-digit labels: rank-1 domains on points >= 10, and at n=10 the
    # antipodal pairs, each line read from its order's label columns
    + [(10, "restrictions"), (11, "restrictions"), (10, "closure"), (11, "closure")]
    # an even n with two-digit labels: domains whose d1 is not their
    # second point, as antipodal pairs off the first point give
    + [(12, "restrictions")],
)
def test_enumerate_lines_are_json_dumps_bytes(method, n, capsys):
    code, out, _ = run(capsys, "enumerate", "--n", str(n), "--method", method)
    assert code == 0
    m = BUILDERS[method](n)
    want = [json.dumps(a.to_json(), separators=(",", ":")) + "\n" for a in m]
    # the line lists are equal iff the texts are; a failure names the
    # first differing line, with no diff of the whole text
    got = out.splitlines(keepends=True)
    first = next((i for i, pair in enumerate(zip_longest(got, want)) if pair[0] != pair[1]), None)
    assert first is None, f"line {first}: {got[first:first + 1]} != {want[first:first + 1]}"


def test_enumerate_checks_the_monoid_before_it_prints(monkeypatch, capsys):
    def rejects(n, chunk):
        raise ValueError("row rejected")

    monkeypatch.setattr(cycliso.monoid, "_checked_chunk", rejects)
    code, out, err = run(capsys, "enumerate", "--n", "5")
    assert code == 1 and out == ""
    assert err == "internal error: row rejected\n"


def test_count_checks_every_row_before_it_prints(monkeypatch, capsys):
    def rejects(n, chunk):
        raise ValueError("row rejected")

    monkeypatch.setattr(cycliso.monoid, "_checked_chunk", rejects)
    code, out, err = run(capsys, "count", "--n", "5")
    assert code == 1 and out == ""
    assert err == "internal error: row rejected\n"


@pytest.mark.parametrize(
    "old, new",
    [
        # one row short: the layout is the longer
        ((1, 2, 0, 0), None),
        # 1 -> 1 and 3 -> 2 is no isometry, but the rows keep canonical order
        ((1, 0, 3, 0), (1, 0, 2, 0)),
    ],
    ids=["row-missing", "row-replaced"],
)
def test_enumerate_prints_nothing_from_a_route_that_differs_from_the_layout(
    old, new, monkeypatch, capsys
):
    m = build_by_restrictions(4)
    rows = list(m.rows)
    i = rows.index(bytes(old))
    rows[i:i + 1] = [bytes(new)] if new else []
    monoid = FiniteMonoid(4, rows, m.generators)
    monkeypatch.setitem(cli.BUILDERS, "closure", lambda n: monoid)
    code, out, err = run(capsys, "enumerate", "--n", "4", "--method", "closure")
    assert code == 1 and out == ""
    assert err == "internal error: the closure rows differ from the restriction layout\n"


def test_enumerate_writes_in_batches(monkeypatch):
    class Sink:
        def write(self, text):
            writes.append(text)

    m = build_by_restrictions(4)
    expected = "".join(json.dumps(a.to_json(), separators=(",", ":")) + "\n" for a in m)
    monkeypatch.setattr(sys, "stdout", Sink())
    for batch in (1, 10):
        writes = []
        monkeypatch.setattr(cli, "ENUMERATE_BATCH", batch)
        assert main(["enumerate", "--n", "4"]) == 0
        assert "".join(writes) == expected
        # whole domains per write: each write ends where a domain ends, and
        # all but the last stop at the first domain that brings them to
        # `batch` lines, so they hold fewer than batch + 2n
        doms = [[json.loads(line)["dom"] for line in w.splitlines()] for w in writes]
        for w, later in zip(doms, doms[1:]):
            assert w[-1] != later[0]
            assert batch <= len(w) < batch + 2 * 4
            assert w.index(w[-1]) < batch
        assert 0 < len(doms[-1]) < batch + 2 * 4


def test_enumerate_bruteforce_bound_is_usage_error(monkeypatch, capsys):
    def no_build(n):
        raise AssertionError("built the monoid")

    # the bound is checked before the build, as green checks the oracle's
    monkeypatch.setitem(cli.BUILDERS, "bruteforce", no_build)
    code, out, err = run(capsys, "enumerate", "--n", "9", "--method", "bruteforce")
    assert code == 2 and out == ""
    assert "bruteforce bound" in err


def test_green_json(capsys):
    code, out, _ = run(capsys, "green", "--n", "4", "--relation", "H", "--verify-oracle")
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 4 and obj["relation"] == "H"
    assert obj["verified"] is True
    assert sum(
        int(size) * count for size, count in obj["class_sizes_histogram"].items()
    ) == cardinality_formula(4)


def test_green_oracle_bound_is_checked_before_building(monkeypatch, capsys):
    def no_build(n):
        raise AssertionError("built the monoid")

    monkeypatch.setattr(cli, "build_by_restrictions", no_build)
    # |M| = 98,065 at n=12 and 212,798 at n=13, the first above the bound
    argv = ["green", "--n", "13", "--relation", "L", "--verify-oracle"]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "oracle size bound" in err


def test_green_verifies_above_the_ideal_oracle_bound(capsys):
    code, out, _ = run(capsys, "green", "--n", "8", "--relation", "H", "--verify-oracle")
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 8 and obj["verified"] is True


def test_green_fails_when_the_oracle_disagrees(monkeypatch, capsys):
    import cycliso.green

    def l_classes(m, relation):
        return GreenClasses(relation, green_LRH(m, "L").classes)

    monkeypatch.setattr(cycliso.green, "cayley_oracle", l_classes)
    code, out, _ = run(capsys, "green", "--n", "4", "--relation", "R", "--verify-oracle")
    assert code == 1
    assert json.loads(out)["verified"] is False


def test_green_without_oracle(capsys):
    code, out, _ = run(capsys, "green", "--n", "5", "--relation", "J")
    assert code == 0
    assert json.loads(out)["verified"] is None


def test_rank_small(capsys):
    code, out, _ = run(capsys, "rank", "--n", "3", "--exhaustive-pairs")
    assert code == 0
    obj = json.loads(out)
    assert obj["triple_generates"] is True
    assert obj["generating_pairs"] == []
    assert obj["message"] == "no generating set of size <= 2; {g, h, e_n} generates"


def test_rank_pair_scan_gated(capsys):
    code, out, _ = run(capsys, "rank", "--n", "6", "--exhaustive-pairs")
    assert code == 0
    obj = json.loads(out)
    assert obj["triple_generates"] is True
    assert obj["pair_search"].startswith("skipped")


def test_present_show(capsys):
    code, out, _ = run(capsys, "present", "show", "--n", "3", "--which", "R")
    assert code == 0
    obj = json.loads(out)
    assert obj["alphabet"] == ["g", "h", "e_1", "e_2", "e_3"]
    assert len(obj["relations"]) == 16
    assert build_R(3).to_json() == obj


def test_present_verify_defines(capsys):
    for which in ("R", "Q"):
        code, out, _ = run(capsys, "present", "verify", "--n", "4", "--which", which)
        assert code == 0
        obj = json.loads(out)
        assert obj["verdict"] == "defines"
        assert obj["quotient_size"] == obj["target_size"] == 97


def test_present_verify_inconclusive_exit_code(capsys):
    code, out, _ = run(
        capsys, "present", "verify", "--n", "3", "--which", "R", "--max-slots", "5"
    )
    assert code == 3
    obj = json.loads(out)
    assert set(obj) == {"n", "verdict", "detail"}
    assert obj["verdict"] == "inconclusive"
    assert "budget 5" in obj["detail"] and "slots swept" in obj["detail"]
    # the same report as every other command that runs out of budget
    assert run(capsys, "tietze", "--n", "3", "--max-slots", "5")[:2] == (code, out)


def test_present_verify_deterministic_modulo_wall_time(capsys):
    _, out1, _ = run(capsys, "present", "verify", "--n", "3", "--which", "Q")
    _, out2, _ = run(capsys, "present", "verify", "--n", "3", "--which", "Q")
    a, b = json.loads(out1), json.loads(out2)
    a.pop("wall_ms"), b.pop("wall_ms")
    assert a == b


def test_lemmas(capsys):
    code, out, _ = run(capsys, "lemmas", "--n", "4")
    assert code == 0
    obj = json.loads(out)
    assert obj["all_pass"] is True
    assert set(obj["suites"]) == {"corank1", "antipodal_pair", "empty_map"}
    assert obj["suites"]["corank1"] == {"checked": 4, "failures": []}


def test_tietze(capsys):
    code, out, _ = run(capsys, "tietze", "--n", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj["all_pass"] is True
    assert obj["r_to_q"]["checked"] == 16
    assert obj["q_to_r"]["checked"] == 9


def test_tietze_inconclusive_exit_code(capsys):
    code, out, _ = run(capsys, "tietze", "--n", "3", "--max-slots", "5")
    assert code == 3
    obj = json.loads(out)
    assert set(obj) == {"n", "verdict", "detail"}
    assert obj["verdict"] == "inconclusive"


def test_out_flag_writes_json(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "tietze", "--n", "3", "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["all_pass"] is True


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["count", "--n", "5..3"])
    assert info.value.code == 2
    assert "5..3" in capsys.readouterr().err
    with pytest.raises(SystemExit) as info:
        main(["green", "--n", "2", "--relation", "L"])
    assert info.value.code == 2
    assert "n must be >= 3" in capsys.readouterr().err
    with pytest.raises(SystemExit) as info:
        main(["present", "verify", "--n", "4"])  # --which missing
    assert info.value.code == 2
    assert "--which" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [
        "enumerate --n 256",
        "count --n 256..300",
        "green --n 300 --relation J",
        "rank --n 300",
        "present verify --which R --n 300",
    ],
)
def test_n_above_255_is_refused_while_parsing(command, capsys):
    # before, each of these began building and exited 1 with
    # "internal error: bytes must be in range(0, 256)"; argparse exits
    # before any command runs
    with pytest.raises(SystemExit) as info:
        main(command.split())
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be <= 255" in captured.err


@pytest.mark.parametrize("command", ["present verify --which R", "tietze"])
def test_slot_budget_below_one_is_refused_while_parsing(command, capsys):
    argv = command.split() + ["--n", "3", "--max-slots", "0"]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "--max-slots must be >= 1" in capsys.readouterr().err


def test_an_internal_error_is_not_a_usage_error(monkeypatch, capsys):
    def fails(presentation, monoid, max_slots=None):
        raise ValueError("the images do not generate the monoid")

    monkeypatch.setattr(cycliso.congruence, "verify_defines", fails)
    code, out, err = run(capsys, "present", "verify", "--n", "3", "--which", "R")
    assert code == 1 and out == ""
    assert err == "internal error: the images do not generate the monoid\n"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cycliso", "count", "--n", "3", "--check-formula"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "3,34,34,true" in proc.stdout


@pytest.mark.parametrize("command", ["enumerate --n 10", "tietze --n 3"])
def test_a_closed_pipe_ends_quietly(command):
    # With stdout block-buffered, the large output fails inside a write and
    # the small one in the flush; the reader is gone before either starts.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen(
        [sys.executable, "-m", "cycliso", *command.split()],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 1
    assert err == ""


def test_output_that_cannot_be_written_is_a_one_line_error(tmp_path):
    target = tmp_path / "missing" / "x.json"
    proc = subprocess.run(
        [sys.executable, "-m", "cycliso", "green", "--n", "5", "--relation", "J",
         "--out", str(target)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert str(target) in proc.stderr


# modules that `enumerate`, `count` and `rank` never call, so a fresh
# `import cycliso.cli` must leave them unloaded
UNUSED_BY_SHORT_COMMANDS = {
    "cycliso.congruence",
    "cycliso.presentations",
    "cycliso.green",
    "cycliso.cycle",
    "cycliso.orientation",
}


def imported_by(*args):
    """The modules a fresh ``python *args`` imports; it must exit 0."""
    # -X importtime writes one stderr line per module the process imports
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args], capture_output=True, text=True
    )
    assert proc.returncode == 0
    return {
        line.rpartition("|")[2].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }


@pytest.mark.parametrize(
    "args", [["-c", "import cycliso.cli"], ["-m", "cycliso", "count", "--n", "3"]]
)
def test_short_commands_leave_the_other_layers_unloaded(args):
    imported = imported_by(*args)
    assert {"cycliso", "cycliso.cli", "cycliso.monoid"} <= imported
    assert imported.isdisjoint(UNUSED_BY_SHORT_COMMANDS)


@pytest.mark.parametrize("relation, loads_cycle", [("R", False), ("J", True)])
def test_green_imports_the_cycle_metric_only_for_J(relation, loads_cycle):
    imported = imported_by("-m", "cycliso", "green", "--n", "3", "--relation", relation)
    assert "cycliso.green" in imported
    assert ("cycliso.cycle" in imported) is loads_cycle


def test_an_exhausted_budget_in_a_fresh_process_is_inconclusive():
    # the handler looks the exception class up only once congruence.py ran
    proc = subprocess.run(
        [sys.executable, "-m", "cycliso", "present", "verify", "--n", "3",
         "--which", "R", "--max-slots", "5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 3
    assert proc.stderr == ""
    obj = json.loads(proc.stdout)
    assert obj.keys() == {"n", "verdict", "detail"}
    assert obj["n"] == 3 and obj["verdict"] == "inconclusive"
    assert obj["detail"].startswith("inconclusive (budget): 5 slots created, budget 5")


# Run in a child whose address space may grow by 24 MB past what the
# imported CLI holds: the slot budget of these commands is far larger.
OUT_OF_MEMORY_CHILD = """
import resource, sys
from cycliso.cli import main
with open("/proc/self/statm") as f:
    size = int(f.read().split()[0]) * resource.getpagesize()
limit = size + (24 << 20)
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/statm")
@pytest.mark.parametrize(
    "command", ["lemmas --n 12", "tietze --n 12", "present verify --n 12 --which Q"]
)
def test_running_out_of_memory_is_inconclusive(command):
    proc = subprocess.run(
        [sys.executable, "-c", OUT_OF_MEMORY_CHILD, *command.split()],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr == ""
    obj = json.loads(proc.stdout)
    assert obj.keys() == {"n", "verdict", "detail"}
    assert obj["n"] == 12 and obj["verdict"] == "inconclusive"
    assert obj["detail"].startswith("inconclusive (out of memory): ")


# the same child with 16 MB to grow by: each command below runs out while
# it builds the monoid, outside the HLT sweep; at n=16 the monoid's
# buffer alone is 2,096,737 rows of 16 bytes, 33.5 MB
TIGHT_OUT_OF_MEMORY_CHILD = OUT_OF_MEMORY_CHILD.replace("(24 << 20)", "(16 << 20)")


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/statm")
@pytest.mark.parametrize(
    "command",
    [
        "enumerate --n 16 --method closure --out /dev/null",
        "green --n 16 --relation J",
        "present verify --n 16 --which R",
    ],
)
def test_running_out_of_memory_elsewhere_is_a_one_line_error(command):
    assert TIGHT_OUT_OF_MEMORY_CHILD != OUT_OF_MEMORY_CHILD
    proc = subprocess.run(
        [sys.executable, "-c", TIGHT_OUT_OF_MEMORY_CHILD, *command.split()],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: out of memory\n"


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/statm")
def test_count_and_enumerate_check_the_rows_without_the_buffer():
    # the same 16 MB to grow by, half the buffer these commands do not build
    for command, stdout in [
        ("enumerate --n 16 --out /dev/null", ""),
        ("count --n 16 --check-formula", "n,enumerated,formula,match\n16,2096737,2096737,true\n"),
    ]:
        proc = subprocess.run(
            [sys.executable, "-c", TIGHT_OUT_OF_MEMORY_CHILD, *command.split()],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, stdout, ""), command
