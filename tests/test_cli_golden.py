"""Golden CLI output: the full stdout of each command on two small graphs,
as text and under --json, pinned byte for byte, and tapsp bench CSV on a
few grids, pinned but for wall_s."""

import pytest
from helpers import strip_wall_column

from tapsp import matrices
from tapsp.cli import main

# strongly connected, weights 1..4: the positive path and a probed diameter
POSITIVE = "p sp 4 5\na 1 2 2\na 2 3 1\na 3 4 3\na 4 1 1\na 1 3 4\n"
# mixed signs, vertex 4 has no out-arc: the general path, inf entries and
# an infinite diameter
MIXED = "p sp 4 4\na 1 2 -1\na 2 3 2\na 3 1 1\na 3 4 -2\n"

POS_PAIRS = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (2, 4), (3, 1),
             (3, 3), (3, 4), (4, 1), (4, 2), (4, 3), (4, 4)]
MIX_PAIRS = [(1, 1), (1, 2), (1, 3), (1, 4), (2, 2), (2, 4), (3, 1), (3, 2),
             (3, 3), (3, 4), (4, 4)]


def _pair_lines(pairs):
    return [f"pair: {u} {v}" for u, v in pairs]


def _pair_json(pairs):
    return "[" + ", ".join(f"[{u}, {v}]" for u, v in pairs) + "]"


GOLDEN = {
    ("positive", "threshold -d 5 --trace --pairs"): (
        ["mode: positive", "n: 4", "M: 4", "d: 5", "count: 14",
         "stat edge_case: primal", "stat levels: 0"] + _pair_lines(POS_PAIRS),
        '{"M": 4, "command": "threshold", "count": 14, "d": 5, "mode": "positive", '
        f'"n": 4, "pairs": {_pair_json(POS_PAIRS)}, '
        '"stats": {"edge_case": "primal", "levels": 0}}'),
    ("positive", "diameter --trace"): (
        ["n: 4", "M: 4", "diameter: 6", "witness: 1 4", "witness: 3 2",
         "search range: [1, 12]", "probe: d=6 all=True", "probe: d=3 all=False",
         "probe: d=5 all=False"],
        '{"M": 4, "command": "diameter", "diameter": "6", "n": 4, "probes": 3, '
        '"witnesses": [[1, 4], [3, 2]]}'),
    ("positive", "oracle"): (
        ["0 2 3 6", "5 0 1 4", "4 6 0 3", "1 3 4 0"],
        '{"M": 4, "command": "oracle", "matrix": ["0 2 3 6", "5 0 1 4", '
        '"4 6 0 3", "1 3 4 0"], "n": 4}'),
    ("positive", "oracle -d 5 --pairs"): (
        ["n: 4", "M: 4", "d: 5", "count: 14"] + _pair_lines(POS_PAIRS),
        '{"M": 4, "command": "oracle", "count": 14, "d": 5, "n": 4, '
        f'"pairs": {_pair_json(POS_PAIRS)}}}'),
    ("mixed", "threshold -d 1 --trace --pairs"): (
        ["mode: general", "n: 4", "M: 2", "d: 1", "count: 11", "stat K: 5",
         "stat accepted: 11", "stat attempts: 1", "stat edge_case: None",
         "stat levels: 0", "stat rejected: 3", "stat window: 2",
         "stat window_reported: 0"] + _pair_lines(MIX_PAIRS),
        '{"M": 2, "command": "threshold", "count": 11, "d": 1, "mode": "general", '
        f'"n": 4, "pairs": {_pair_json(MIX_PAIRS)}, '
        '"stats": {"K": 5, "accepted": 11, "attempts": 1, "edge_case": null, '
        '"levels": 0, "rejected": 3, "window": 2, "window_reported": 0}}'),
    ("mixed", "diameter --trace"): (
        ["n: 4", "M: 2", "diameter: inf", "witness: 4 1", "witness: 4 2",
         "witness: 4 3", "search range: [0, 0]"],
        '{"M": 2, "command": "diameter", "diameter": "inf", "n": 4, "probes": 0, '
        '"witnesses": [[4, 1], [4, 2], [4, 3]]}'),
    ("mixed", "oracle"): (
        ["0 -1 1 -1", "3 0 2 0", "1 0 0 -2", "inf inf inf 0"],
        '{"M": 2, "command": "oracle", "matrix": ["0 -1 1 -1", "3 0 2 0", '
        '"1 0 0 -2", "inf inf inf 0"], "n": 4}'),
    ("mixed", "oracle -d 1 --pairs"): (
        ["n: 4", "M: 2", "d: 1", "count: 11"] + _pair_lines(MIX_PAIRS),
        '{"M": 2, "command": "oracle", "count": 11, "d": 1, "n": 4, '
        f'"pairs": {_pair_json(MIX_PAIRS)}}}'),
}


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("graph,command", list(GOLDEN))
def test_cli_output_is_pinned(tmp_path, capsys, graph, command, as_json):
    path = tmp_path / f"{graph}.gr"
    path.write_text(POSITIVE if graph == "positive" else MIXED)
    name, *rest = command.split()
    argv = [name, str(path), *rest] + (["--json"] if as_json else [])
    assert main(argv) == 0
    text, payload = GOLDEN[graph, command]
    captured = capsys.readouterr()
    assert captured.out == (payload + "\n" if as_json else "\n".join(text) + "\n")
    assert captured.err == ""


# tapsp bench rows without wall_s, each case "argv | STRASSEN_CUTOFF":
# every algo and both paths, positive rows within the primal cap (the
# default d) and past it (-d 100) under each kernel, Strassen with a
# cutoff low enough to recurse, and general rows capped and sampled
BENCH_GOLDEN = {
    ("--ns 8,16 --ms 2,8 --algos oracle,naive_product,threshold,diameter", 64): """\
8,2,0.3,oracle,0,0,0,0
8,2,0.3,naive_product,0,0,512,0
8,2,0.3,threshold,0,0,1024,0
8,2,0.3,diameter,0,0,1536,192
8,8,0.3,oracle,0,0,0,0
8,8,0.3,naive_product,0,0,512,0
8,8,0.3,threshold,0,0,1536,0
8,8,0.3,diameter,0,0,1536,192
16,2,0.3,oracle,0,0,0,0
16,2,0.3,naive_product,0,0,4096,0
16,2,0.3,threshold,0,0,12288,0
16,2,0.3,diameter,0,0,16384,1024
16,8,0.3,oracle,0,0,0,0
16,8,0.3,naive_product,0,0,4096,0
16,8,0.3,threshold,0,0,16384,0
16,8,0.3,diameter,0,0,16384,1024
""",
    ("--ns 16 --ms 8 -d 100 --algos threshold,diameter", 64): """\
16,8,0.3,threshold,0,0,20480,0
16,8,0.3,diameter,0,0,16384,1024
""",
    ("--ns 8,16 --ms 2 --algos threshold,diameter --kernel schoolbook", 64): """\
8,2,0.3,threshold,0,0,1024,0
8,2,0.3,diameter,0,0,1536,192
16,2,0.3,threshold,0,0,12288,0
16,2,0.3,diameter,0,0,16384,1024
""",
    ("--ns 16 --ms 8 -d 100 --algos threshold --kernel schoolbook", 64): """\
16,8,0.3,threshold,0,4096,16384,0
""",
    ("--ns 16 --ms 2,8 -d 100 --algos threshold --kernel strassen", 4): """\
16,2,0.3,threshold,0,0,0,1024
16,8,0.3,threshold,0,3136,16384,0
""",
    ("--ns 8,32 --ms 4 --wmin -4 --algos threshold,diameter", 64): """\
8,4,0.3,threshold,0,0,1536,0
8,4,0.3,diameter,0,0,1536,0
32,4,0.3,threshold,0,0,163840,0
32,4,0.3,diameter,0,0,163840,0
""",
    ("--ns 32 --ms 4 --wmin -4 --algos threshold,diameter --force-beta 0", 64): """\
32,4,0.3,threshold,0,0,2781184,0
32,4,0.3,diameter,0,0,3174400,5120
""",
}


@pytest.mark.parametrize("argv,cutoff", list(BENCH_GOLDEN))
def test_bench_csv_is_pinned(monkeypatch, capsys, argv, cutoff):
    monkeypatch.setattr(matrices, "STRASSEN_CUTOFF", cutoff)
    assert main(["bench", "--densities", "0.3", *argv.split()]) == 0
    rows = strip_wall_column(capsys.readouterr().out)
    assert rows[0] == ("n,M,density,algo,seed,ring_mults,minplus_relaxations,"
                       "bool_ops").split(",")
    assert "".join(",".join(r) + "\n" for r in rows[1:]) == BENCH_GOLDEN[argv, cutoff]
