"""The command line front end, executed in process through main()."""

import hashlib
import json

import pytest

from matzero.cli import main
from matzero.gfq import gf
from matzero.harness import main_theorem_suite, save_instances
from matzero.instances import fano
from matzero.matroid import LinearMatroid, load_matroid, save_matroid
from matzero.treedecomp import load_decomposition

from support import non_simple_matroids


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def test_generate_uniform_writes_matrix_and_decomposition(capsys, tmp_path):
    rc, out = run(
        capsys, "generate", "uniform", "--rank", "2", "--n", "5",
        "--out", str(tmp_path),
    )
    assert rc == 0
    matrix = tmp_path / "uniform-r2n5.matrix"
    decomp = tmp_path / "uniform-r2n5.decomp"
    assert str(matrix) in out
    assert matrix.exists() and decomp.exists()
    m = load_matroid(matrix)
    assert (m.full_rank, m.n) == (2, 5)
    dec = load_decomposition(decomp, m)
    assert dec.width() == 2


# sha256 of the matrix and decomposition files `generate uniform` writes:
# the normal rational curve over the smallest prime power q >= n - 1,
# with the point at infinity when n == q + 1 (r=2 n=4, r=4 n=9, r=3 n=10
# over GF(9), r=5 n=12), U_{r,r} as the identity and U_{1,n} as ones
UNIFORM_FILES = {
    (1, 1): ("936046336be194ad768324b0fa1638a21e1dcf174384e9949e285b57d21923a8",
             "fa850cc740288e9c547a7a2f6b9800e74a10898b1ec396de40ca9b04a176a19f"),
    (1, 3): ("cfefe280b8ac30bf83951432fb6b84ddb8e4aa59e612084a2a5e2484893874e0",
             "a325fe42e124ab466187d011a199c2874e4fe9c956589b66d7d200e5910f458c"),
    (2, 2): ("0a41db16d88069271371c9e9da7b4228b7f376ac01303af67bb253cff9324dc3",
             "c58a6ab7b420a33e78a0b3ae8017a953e9bf4118544835ad247e2adb8b4b31ec"),
    (2, 4): ("fafb803a8ae5a466cc402e0876b722eae7e5414bdce4ecebfc20f03da25e8dbd",
             "a81d89541eff7d773bdca66ab9b6bc0a2267c81b1686315342f2569811ee2b9d"),
    (2, 9): ("cefcdd9718bd0fdf519915ca7f40e8db9be513e095726308cf64ea6f875c8d18",
             "d57e9ce2a4bc56fb54b7746353e4c74a4a2117e1fe595a232e47494dd5f7c858"),
    (3, 7): ("176af9740fd109ee12d73bacbb17b80c3670def81d9c5d8eca7edac3f928e49f",
             "250b17970e1fb5e1275959225ad5e6e460463703c97e9f83a8215142327fd943"),
    (3, 10): ("c9374310bbc14d811f40bff0f89eb5aba58649d4e9583cdd1e5376a57ed19080",
              "a2ce2385d363bf65c7695258438e58a070c3de7e49a7adbc4e67473556aed328"),
    (4, 9): ("fb5ec8f2b0eca69ca01e98f4e8b15899dfba28ebacc96335c1a1251956351bf1",
             "d57e9ce2a4bc56fb54b7746353e4c74a4a2117e1fe595a232e47494dd5f7c858"),
    (5, 12): ("12515971cf2e034dc53f614b3a0e03a8621008d40d3ef9c8891c0986a459275a",
              "137b34976c3c626347c2a0a88acd8318867e530b56b97dfe4714ae5bc7ce31ad"),
}


@pytest.mark.parametrize("r,n", sorted(UNIFORM_FILES))
def test_generate_uniform_writes_the_same_bytes(capsys, tmp_path, r, n):
    rc, _ = run(capsys, "generate", "uniform", "--rank", str(r), "--n", str(n),
                "--out", str(tmp_path))
    assert rc == 0
    digests = tuple(
        hashlib.sha256((tmp_path / f"uniform-r{r}n{n}.{ext}").read_bytes()).hexdigest()
        for ext in ("matrix", "decomp")
    )
    assert digests == UNIFORM_FILES[r, n]


# sha256 of the .decomp width witness that `generate random`, `generate
# glued` and `generate graphic` wrote while every candidate width was
# a walk over the tree per vertex: greedy paths (q=2 r=2 n=6, q=2 r=3
# n=12, graphic path and cycle), single bags, and glued block paths
RANDOM_DECOMPS = {  # (q, rank, n, seed)
    (2, 2, 6, 1): "24edf9a4b314e1d9e5c1605dc456c9d1efb96171fdecf3df9af96a46e5165c09",
    (2, 3, 12, 1): "aee5f4bfcd0c0f965a5c67306a99298b712be17a8f7addfd42a8c8da80d74afe",
    (2, 4, 6, 0): "3917b2827b7f45ad59453c0d1955dc84f290bd09bc9f7a7ffead9ec835e7d592",
    (2, 3, 8, 0): "92a65d1ad642862bae73d03cb8b5739dd1d68fe1879e8108faab3a8fd0c2c87e",
    (3, 3, 9, 1): "d57e9ce2a4bc56fb54b7746353e4c74a4a2117e1fe595a232e47494dd5f7c858",
    (4, 3, 10, 2): "a2ce2385d363bf65c7695258438e58a070c3de7e49a7adbc4e67473556aed328",
    (5, 4, 12, 0): "137b34976c3c626347c2a0a88acd8318867e530b56b97dfe4714ae5bc7ce31ad",
    (2, 1, 4, 0): "a81d89541eff7d773bdca66ab9b6bc0a2267c81b1686315342f2569811ee2b9d",
    (7, 2, 6, 3): "dadcdec2734217288021e5e3a1eabb4e44bf3dfc57aaaefa6559980552cdd755",
    (2, 5, 16, 4): "3c3799d34a988495d98e36db7158fd6550febe7d62fbd70c0b2d0fc1ebce5aa3",
}
GLUED_DECOMPS = {  # (q, block rank, blocks, overlap, deleted, seed)
    (2, 3, 2, 1, 0, 0): "b882672ffb02e909d9d67cf816086a4ceb0ad53a7eda87a58aac68fb83200fc0",
    (2, 2, 5, 0, 2, 3): "747a31866f4ba486ec69cecb8eaea9ac2abda99bea040c8baad1ac89fd33f6ac",
    (3, 2, 4, 1, 3, 1): "93c93bac8c834375064416e621603035b9bfe2b4b1da1a77828549085758d853",
    (2, 3, 3, 1, 3, 2): "0f61899d958065b698b30ba5a3a2dc9ef58719e5af0627c1dbb69b2cfab1ac5c",
    (4, 2, 2, 1, 1, 0): "b02f314860d979935dbd64d69ed999b0ac304e45eed3b582de8d34ead0253ed2",
}
GRAPHIC_DECOMPS = {
    ("complete", 5): "a2ce2385d363bf65c7695258438e58a070c3de7e49a7adbc4e67473556aed328",
    ("cycle", 6): "3917b2827b7f45ad59453c0d1955dc84f290bd09bc9f7a7ffead9ec835e7d592",
    ("path", 4): "245fb18359074e9961337d0d16296011291cb96819f1d10add75eb18f19eccd1",
    ("complete", 1): "addcc9e29f254de0c9086b7134c283e4d4311dde146e6ed8215588aae1a77b0e",
}


def _only_decomp(directory):
    (path,) = directory.glob("*.decomp")
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("q, r, n, seed", sorted(RANDOM_DECOMPS))
def test_generate_random_writes_the_same_witness(capsys, tmp_path, q, r, n, seed):
    rc, _ = run(capsys, "generate", "random", "--q", str(q), "--rank", str(r), "--n", str(n),
                "--seed", str(seed), "--out", str(tmp_path))
    assert rc == 0
    assert _only_decomp(tmp_path) == RANDOM_DECOMPS[q, r, n, seed]


@pytest.mark.parametrize("shape", sorted(GLUED_DECOMPS))
def test_generate_glued_writes_the_same_witness(capsys, tmp_path, shape):
    q, block_rank, blocks, overlap, deleted, seed = shape
    rc, _ = run(capsys, "generate", "glued", "--q", str(q), "--block-rank", str(block_rank),
                "--blocks", str(blocks), "--overlap", str(overlap), "--delete", str(deleted),
                "--seed", str(seed), "--out", str(tmp_path))
    assert rc == 0
    assert _only_decomp(tmp_path) == GLUED_DECOMPS[shape]


@pytest.mark.parametrize("shape, vertices", sorted(GRAPHIC_DECOMPS))
def test_generate_graphic_writes_the_same_witness(capsys, tmp_path, shape, vertices):
    rc, _ = run(capsys, "generate", "graphic", "--shape", shape, "--vertices", str(vertices),
                "--out", str(tmp_path))
    assert rc == 0
    assert _only_decomp(tmp_path) == GRAPHIC_DECOMPS[shape, vertices]


# `treewidth --heuristic H --decomp OUT` on fixed files: the JSON line
# and the sha256 of the decomposition, as written by the per-vertex walk
TREEWIDTH_FILES = {
    "fano": "2 3 7\n0 0 0 1 1 1 1\n0 1 1 0 0 1 1\n1 0 1 0 1 0 1\n",
    "gf3": "3 3 8\n1 0 2 1 0 1 2 1\n0 1 2 1 0 2 0 0\n2 1 0 1 1 0 1 2\n",
    "gf2": "2 3 12\n0 1 1 1 0 1 0 1 0 1 1 1\n0 1 1 1 0 0 0 0 1 1 1 0\n1 1 0 0 1 0 1 0 1 0 0 0\n",
    "cycle": "graph 5 6\n0 1\n1 2\n2 3\n3 4\n4 0\n1 3\n",
}
_SINGLE = "250b17970e1fb5e1275959225ad5e6e460463703c97e9f83a8215142327fd943"
_PATH7 = "3f928e79e8ccf4bc46dbb4b63f3edd3d6dabf5ad45072b2407acc2520e28c037"
TREEWIDTH_OUTPUTS = {
    ("fano", "best"): (3, 1, _SINGLE),
    ("fano", "path"): (3, 7, _PATH7),
    ("fano", "greedy"): (3, 7, _PATH7),
    ("fano", "single"): (3, 1, _SINGLE),
    ("gf3", "best"): (3, 1, "92a65d1ad642862bae73d03cb8b5739dd1d68fe1879e8108faab3a8fd0c2c87e"),
    ("gf3", "path"): (3, 8, "673e24ae6798d1ac34e46dd0a0eddc14701deeb4e1b08bdd2e81d490d1432f81"),
    ("gf3", "greedy"): (3, 8, "6c1705658bd84ebcb06957048bef6e87b67109c3fbce206d4dd8d3a744eb17f0"),
    ("gf3", "single"): (3, 1, "92a65d1ad642862bae73d03cb8b5739dd1d68fe1879e8108faab3a8fd0c2c87e"),
    ("gf2", "best"): (2, 12, "aee5f4bfcd0c0f965a5c67306a99298b712be17a8f7addfd42a8c8da80d74afe"),
    ("gf2", "path"): (3, 12, "1e1433a106ce1b860f1605076cadc9bf7f154919fe4ba5165a7dbbec0e339729"),
    ("gf2", "greedy"): (2, 12, "aee5f4bfcd0c0f965a5c67306a99298b712be17a8f7addfd42a8c8da80d74afe"),
    ("gf2", "single"): (3, 1, "137b34976c3c626347c2a0a88acd8318867e530b56b97dfe4714ae5bc7ce31ad"),
    ("cycle", "best"): (3, 6, "adc0c3ef5f528d083ed43c2cd5ad80b99598884bed4ec9dc2ca03393e52aeab3"),
    ("cycle", "path"): (3, 6, "3917b2827b7f45ad59453c0d1955dc84f290bd09bc9f7a7ffead9ec835e7d592"),
    ("cycle", "greedy"): (3, 6, "adc0c3ef5f528d083ed43c2cd5ad80b99598884bed4ec9dc2ca03393e52aeab3"),
    ("cycle", "single"): (4, 1, "dadcdec2734217288021e5e3a1eabb4e44bf3dfc57aaaefa6559980552cdd755"),
}


@pytest.mark.parametrize("name, heuristic", sorted(TREEWIDTH_OUTPUTS))
def test_treewidth_heuristics_print_and_write_the_same(capsys, tmp_path, name, heuristic):
    matrix = tmp_path / f"{name}.matrix"
    matrix.write_text(TREEWIDTH_FILES[name])
    decomp = tmp_path / "out.decomp"
    rc, out = run(capsys, "treewidth", str(matrix), "--heuristic", heuristic,
                  "--decomp", str(decomp))
    assert rc == 0
    width, vertices, digest = TREEWIDTH_OUTPUTS[name, heuristic]
    assert out == json.dumps({"width": width, "exact": False, "tree_vertices": vertices}) + "\n"
    assert hashlib.sha256(decomp.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "name, decomp, expected",
    [
        ("gf2", "tree 4\n0 1\n1 2\n1 3\ntau\n0 0\n1 0\n2 1\n3 2\n4 2\n5 3\n6 3\n7 3\n"
                "8 1\n9 0\n10 2\n11 3\n", {"width": 3, "node_widths": [2, 3, 2, 2]}),
        ("cycle", "tree 3\n0 1\n1 2\ntau\n0 0\n1 2\n2 1\n3 1\n4 2\n5 0\n",
         {"width": 4, "node_widths": [2, 4, 2]}),
    ],
)
def test_treewidth_evaluate_prints_the_same(capsys, tmp_path, name, decomp, expected):
    matrix = tmp_path / f"{name}.matrix"
    matrix.write_text(TREEWIDTH_FILES[name])
    path = tmp_path / "in.decomp"
    path.write_text(decomp)
    rc, out = run(capsys, "treewidth", str(matrix), "--evaluate", str(path))
    assert rc == 0
    assert json.loads(out) == expected


def test_generate_random_rejects_an_order_that_is_not_a_prime_power(capsys, tmp_path):
    rc = main(["generate", "random", "--q", "6", "--rank", "2", "--n", "3",
               "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "matzero: 6 is not a prime power\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "rank, n, message",
    [
        ("0", "3", "a random matrix needs rank r >= 1, got r=0"),
        ("2", "-1", "a random matrix needs n >= 0 columns, got n=-1"),
    ],
    ids=["rank-0", "n-negative"],
)
def test_generate_random_rejects_bad_sizes(capsys, tmp_path, rank, n, message):
    """A size that admits no random matrix ends in one message line,
    exit status 2 and no file, not a traceback or a matrix of n = -1."""
    rc = main(["generate", "random", "--q", "2", "--rank", rank, "--n", n,
               "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == f"matzero: {message}\n"
    assert not list(tmp_path.iterdir())


def test_generate_random_rejects_a_negative_count(capsys, tmp_path):
    """A negative --count is refused by name with exit status 2 before
    the --out directory is made; a count of 0 writes an empty one."""
    outdir = tmp_path / "out"
    argv = ["generate", "random", "--q", "2", "--rank", "2", "--n", "3", "--out", str(outdir)]
    rc = main([*argv, "--count", "-2"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "matzero: the instance count must be nonnegative, got -2\n"
    assert not outdir.exists()
    assert main([*argv, "--count", "0"]) == 0
    assert capsys.readouterr().out == ""
    assert outdir.is_dir() and not list(outdir.iterdir())


@pytest.mark.parametrize("kind", ["mixed", "random", "glued"])
def test_verify_rejects_a_width_below_one(capsys, kind):
    rc = main(["verify", "main", "--q", "2", "--k", "0", "--instances", f"{kind}:5:0"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "matzero: the width bound needs k >= 1, got k=0\n"


@pytest.mark.parametrize("suite", ["main", "nolines", "bounds"])
@pytest.mark.parametrize("q, k, message", [
    ("1", "2", "the bounds need q >= 2, got q=1"),
    ("0", "2", "the bounds need q >= 2, got q=0"),
    ("2", "0", "the width bound needs k >= 1, got k=0"),
])
def test_verify_rejects_bad_q_or_k_on_directory_instances(capsys, tmp_path, suite, q, k, message):
    save_instances(tmp_path, main_theorem_suite(2, 2, 2, seed=0))
    rc = main(["verify", suite, "--q", q, "--k", k, "--instances", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == f"matzero: {message}\n"


def test_verify_bounds_deletes_loops_first(capsys, tmp_path):
    """A zero column is a loop: the counting bounds read the
    simplification without it, and the witness width still holds."""
    from matzero.harness import InstanceRecord
    from matzero.treedecomp import single_vertex_decomposition

    m = LinearMatroid(gf(2), [(1, 0), (0, 0), (0, 1), (1, 1), (1, 1)])
    rec = InstanceRecord(id="loopy", q=2, matroid=m, decomposition=single_vertex_decomposition(m))
    save_instances(tmp_path, [rec])
    assert load_matroid(tmp_path / "loopy.matrix").loops_mask() == 0b10  # column 1 is zero
    rc, out = run(capsys, "verify", "bounds", "--q", "2", "--k", "2", "--instances", str(tmp_path))
    assert rc == 0
    reports = [json.loads(ln) for ln in out.strip().split("\n")]
    assert [(r["theorem"], r["n"], r["verdict"]) for r in reports] == [
        ("size", 3, True), ("cocircuit", 3, True),
    ]
    assert reports[1]["cocircuit_size"] == 2


@pytest.mark.parametrize("shape", ["path", "cycle", "complete"])
def test_generate_graphic_rejects_a_negative_vertex_count(capsys, tmp_path, shape):
    rc = main(["generate", "graphic", "--shape", shape, "--vertices", "-1",
               "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "matzero: a graph needs a nonnegative vertex count, got -1\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "options, message",
    [
        (["--overlap", "5"],
         "a glued path needs 0 <= overlap_rank < block_rank, got overlap_rank=5, block_rank=3"),
        (["--overlap", "-1"],
         "a glued path needs 0 <= overlap_rank < block_rank, got overlap_rank=-1, block_rank=3"),
        (["--blocks", "0"], "a glued path needs at least one block, got 0"),
        (["--delete", "-2"], "the delete count must be nonnegative, got -2"),
    ],
    ids=["overlap-5", "overlap-negative", "blocks-0", "delete-negative"],
)
def test_generate_glued_rejects_bad_arguments(capsys, tmp_path, options, message):
    """A glued shape that cannot be built, or a negative delete count,
    ends in one message line, exit status 2 and no file."""
    argv = {"--q": "2", "--block-rank": "3", "--blocks": "2", "--overlap": "1", "--delete": "0"}
    argv.update(zip(options[::2], options[1::2]))
    rc = main(["generate", "glued", *(x for kv in argv.items() for x in kv),
               "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == f"matzero: {message}\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        ["random", "--q", "2", "--rank", "0", "--n", "3"],
        ["uniform", "--rank", "5", "--n", "3"],
        ["uniform", "--rank", "-1", "--n", "3"],
        ["graphic", "--shape", "path", "--vertices", "-2"],
        ["glued", "--q", "6", "--block-rank", "2"],
        ["random", "--q", "2", "--rank", "2", "--n", "3", "--count", "-2"],
    ],
    ids=["random-rank-0", "uniform-rank-above-n", "uniform-rank-negative",
         "graphic-negative", "glued-q-6", "random-count-negative"],
)
def test_generate_rejects_arguments_before_making_the_out_directory(capsys, tmp_path, argv):
    """Rejected arguments end in one message line and exit status 2,
    and the --out directory they named is never made."""
    outdir = tmp_path / "new" / "out"
    rc = main(["generate", *argv, "--out", str(outdir)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("matzero: ") and captured.err.count("\n") == 1
    assert not outdir.exists() and not outdir.parent.exists()


def test_generate_uniform_rank_zero(capsys, tmp_path):
    rc, out = run(capsys, "generate", "uniform", "--rank", "0", "--n", "3",
                  "--out", str(tmp_path))
    assert rc == 0
    matrix = tmp_path / "uniform-r0n3.matrix"
    assert out.split() == [str(matrix)]
    assert matrix.read_text() == "2 0 3\n"
    m = load_matroid(matrix)
    assert (m.full_rank, m.n, m.loops_mask()) == (0, 3, 0b111)


def test_generate_uniform_rejects_rank_above_n(capsys, tmp_path):
    rc = main(["generate", "uniform", "--rank", "4", "--n", "3", "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "matzero: a uniform matroid needs 0 <= r <= n, got r=4, n=3\n"
    assert not list(tmp_path.iterdir())


def test_charpoly_engines_agree_via_cli(capsys, tmp_path):
    run(
        capsys, "generate", "uniform", "--rank", "2", "--n", "5",
        "--out", str(tmp_path),
    )
    matrix = str(tmp_path / "uniform-r2n5.matrix")
    outputs = []
    for engine in ("auto", "mobius", "boolean", "delcon", "cocircuit"):
        rc, out = run(capsys, "charpoly", matrix, "--engine", engine)
        assert rc == 0
        outputs.append(json.loads(out))
    assert all(o == ["4", "-5", "1"] for o in outputs)


@pytest.mark.parametrize("name, m", non_simple_matroids(), ids=[n for n, _ in non_simple_matroids()])
def test_charpoly_cocircuit_engine_on_loops_and_parallel_elements(capsys, tmp_path, name, m):
    """A graphic matroid with a loop edge and parallel edges, and GF(3)
    and GF(4) matrices with zero and repeated columns, each with and
    without its loops: the cocircuit engine, which expands the
    simplification, prints what deletion-contraction prints."""
    path = tmp_path / f"{name}.matrix"
    save_matroid(m, path)
    outputs = []
    for engine in ("delcon", "cocircuit"):
        rc, out = run(capsys, "charpoly", str(path), "--engine", engine)
        assert rc == 0
        outputs.append(json.loads(out))
    assert outputs[0] == outputs[1]
    assert (outputs[0] == []) == name.endswith("-loops")


def test_charpoly_pretty_goes_to_stderr(capsys, tmp_path):
    path = tmp_path / "fano.matrix"
    save_matroid(fano(), path)
    rc = main(["charpoly", str(path), "--pretty"])
    captured = capsys.readouterr()
    assert rc == 0
    assert json.loads(captured.out) == ["-8", "14", "-7", "1"]
    assert "lam" in captured.err


def test_treewidth_exact(capsys, tmp_path):
    run(
        capsys, "generate", "uniform", "--rank", "2", "--n", "5",
        "--out", str(tmp_path),
    )
    matrix = str(tmp_path / "uniform-r2n5.matrix")
    rc, out = run(capsys, "treewidth", matrix, "--exact")
    assert rc == 0
    assert json.loads(out) == {"width": 2, "exact": True, "tree_vertices": 1}


def test_treewidth_heuristic_decomp_and_evaluate(capsys, tmp_path):
    path = tmp_path / "fano.matrix"
    save_matroid(fano(), path)
    dpath = tmp_path / "fano.decomp"
    rc, out = run(
        capsys, "treewidth", str(path), "--heuristic", "path",
        "--decomp", str(dpath),
    )
    assert rc == 0
    first = json.loads(out)
    assert first["exact"] is False
    assert first["tree_vertices"] == 7
    assert dpath.exists()
    rc, out = run(capsys, "treewidth", str(path), "--evaluate", str(dpath))
    assert rc == 0
    evaluated = json.loads(out)
    assert evaluated["width"] == first["width"]
    assert len(evaluated["node_widths"]) == 7


def test_verify_main_suite(capsys, tmp_path):
    rc, out = run(capsys, "verify", "main", "--q", "2", "--instances", "mixed:10:0")
    assert rc == 0
    lines = out.strip().split("\n")
    assert len(lines) == 10
    for ln in lines:
        payload = json.loads(ln)
        assert payload["verdict"] is True
        assert payload["theorem"] == "main"

    report = tmp_path / "main.jsonl"
    rc, out = run(
        capsys, "verify", "main", "--q", "2", "--instances", "mixed:10:0",
        "--report", str(report),
    )
    assert rc == 0
    assert out == ""
    assert report.read_text() == "\n".join(lines) + "\n"


def test_verify_identities_on_saved_instances(capsys, tmp_path):
    rc, out = run(
        capsys, "generate", "glued", "--q", "2", "--block-rank", "2",
        "--blocks", "2", "--overlap", "1", "--out", str(tmp_path),
    )
    assert rc == 0
    rc, out = run(
        capsys, "verify", "identities", "--q", "2", "--instances", str(tmp_path),
    )
    assert rc == 0
    checks = [json.loads(ln) for ln in out.strip().split("\n")]
    assert {c["check"] for c in checks} >= {"delete-contract", "glued-factorization"}
    assert all(c["passed"] for c in checks)


def test_verify_bounds_suite(capsys):
    rc, out = run(capsys, "verify", "bounds", "--q", "2", "--instances", "mixed:6:1")
    assert rc == 0
    for ln in out.strip().split("\n"):
        assert json.loads(ln)["verdict"] is True


def test_verify_exit_code_on_failure(capsys, tmp_path, monkeypatch):
    # a rank-1 flat of three parallel elements fails the no-lines bound
    # for q = 2 only if a 4-line sneaks in, so force a failing verdict
    # through the main suite instead: chi(U_{2,4}) has largest root 3,
    # above the bound 2**(2-1) = 2.
    m = LinearMatroid(gf(5), [(1, 0), (0, 1), (1, 1), (1, 2)])
    from matzero.harness import InstanceRecord
    from matzero.treedecomp import single_vertex_decomposition

    rec = InstanceRecord(
        id="hot", q=5, matroid=m, decomposition=single_vertex_decomposition(m)
    )
    d = tmp_path / "inst"
    save_instances(d, [rec])
    rc, out = run(capsys, "verify", "main", "--q", "2", "--instances", str(d))
    assert rc == 1
    payload = json.loads(out.strip().split("\n")[0])
    assert payload["verdict"] is False


def test_minors_line_flag_spellings(capsys, tmp_path):
    path = tmp_path / "line.matrix"
    save_matroid(LinearMatroid(gf(3), [(1, 0), (0, 1), (1, 1), (1, 2)]), path)
    rc, out = run(capsys, "minors", "line", str(path), "--l", "4")
    assert rc == 0
    assert json.loads(out) == {"line_length": 4, "present": True}
    rc, out = run(capsys, "minors", "line", str(path), "--length", "5")
    assert rc == 0
    assert json.loads(out) == {"line_length": 5, "present": False}


@pytest.mark.parametrize("length", ["1", "0", "-3"])
def test_minors_line_rejects_a_length_below_two(capsys, tmp_path, length):
    path = tmp_path / "line.matrix"
    save_matroid(LinearMatroid(gf(3), [(1, 0), (0, 1), (1, 1), (1, 2)]), path)
    rc = main(["minors", "line", str(path), "--l", length])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("matzero: ")
    assert captured.err.count("\n") == 1
    assert "at least 2" in captured.err


def test_generate_graphic_complete(capsys, tmp_path):
    rc, out = run(
        capsys, "generate", "graphic", "--shape", "complete", "--vertices", "4",
        "--out", str(tmp_path),
    )
    assert rc == 0
    matrix = tmp_path / "graphic-complete4.matrix"
    assert matrix.exists()
    assert (tmp_path / "graphic-complete4.decomp").exists()
    rc, out = run(capsys, "charpoly", str(matrix))
    assert json.loads(out) == ["-6", "11", "-6", "1"]


def test_generate_random_and_glued(capsys, tmp_path):
    rc, out = run(
        capsys, "generate", "random", "--q", "3", "--rank", "2", "--n", "6",
        "--count", "2", "--seed", "11", "--out", str(tmp_path),
    )
    assert rc == 0
    paths = out.strip().split("\n")
    assert len(paths) == 2
    for p in paths:
        m = load_matroid(p)
        assert m.n == 6

    rc, out = run(
        capsys, "generate", "glued", "--q", "2", "--block-rank", "3",
        "--blocks", "2", "--overlap", "2", "--out", str(tmp_path),
    )
    assert rc == 0
    m = load_matroid(out.strip())
    assert (m.full_rank, m.n) == (4, 11)


def test_mz_seed_env_overrides_cli_seed(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("MZ_SEED", "123")
    rc, out = run(
        capsys, "generate", "random", "--q", "2", "--rank", "2", "--n", "4",
        "--seed", "7", "--out", str(tmp_path),
    )
    assert rc == 0
    assert "-s123.matrix" in out


def test_mz_seed_applies_once_to_generate_count(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("MZ_SEED", "123")
    rc, out = run(
        capsys, "generate", "random", "--q", "2", "--rank", "2", "--n", "4",
        "--count", "3", "--seed", "7", "--out", str(tmp_path),
    )
    assert rc == 0
    assert [p.rsplit("-", 1)[1] for p in out.split()] == [
        "s123.matrix", "s124.matrix", "s125.matrix",
    ]


def test_errors_print_one_line(capsys, tmp_path):
    bad = tmp_path / "bad.matrix"
    bad.write_text("2 2 3\n1 0 1\n0 1\n")
    metadata = {}
    for name, text in (
        ("malformed", "{\n  bad"),
        ("array", "[1, 2]"),
        ("construction", '{"construction": [1]}'),
        ("q", '{"q": "two"}'),
    ):
        save_instances(tmp_path / name, main_theorem_suite(2, 2, 1, seed=0))
        (path,) = (tmp_path / name).glob("*.json")
        path.write_text(text)
        metadata[name] = str(tmp_path / name), str(path)
    cases = (
        (["verify", "main", "--q", "2", "--instances", "mixed:abc:0"], "'mixed:abc:0'"),
        (["verify", "main", "--q", "2", "--instances", "mixed:-3:0"], "'mixed:-3:0'"),
        (["charpoly", str(bad)], "line 3"),
        (["verify", "main", "--q", "2", "--instances", metadata["malformed"][0]], "line 2: "),
        (["verify", "main", "--q", "2", "--instances", metadata["malformed"][0]],
         metadata["malformed"][1]),
        (["verify", "main", "--q", "2", "--instances", metadata["array"][0]],
         metadata["array"][1]),
        (["verify", "identities", "--q", "2", "--instances", metadata["construction"][0]],
         f"{metadata['construction'][1]}: the construction is not a JSON object"),
        (["verify", "bounds", "--q", "2", "--instances", metadata["q"][0]],
         f"{metadata['q'][1]}: q is 'two', not an integer >= 2"),
    )
    for argv, fragment in cases:
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("matzero: ")
        assert captured.err.count("\n") == 1
        assert fragment in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["charpoly", "{missing}"],
        ["charpoly", "{dir}"],
        ["treewidth", "{missing}"],
        ["treewidth", "{dir}"],
        ["treewidth", "{file}", "--evaluate", "{missing}"],
        ["treewidth", "{file}", "--evaluate", "{dir}"],
        ["minors", "line", "--l", "4", "{missing}"],
        ["minors", "line", "--l", "4", "{dir}"],
    ],
    ids=["charpoly-missing", "charpoly-dir", "treewidth-missing", "treewidth-dir",
         "evaluate-missing", "evaluate-dir", "minors-missing", "minors-dir"],
)
def test_unreadable_input_file_prints_one_line(capsys, tmp_path, argv):
    """A missing input file, or a directory in its place, ends the run
    with one `matzero: ...` line naming the path and exit status 2, the
    status of bad input; exit 1 is kept for failed verdicts."""
    matrix = tmp_path / "fano.matrix"
    save_matroid(fano(), matrix)
    paths = {"missing": tmp_path / "nofile.mat", "dir": tmp_path, "file": matrix}
    argv = [a.format(**paths) for a in argv]
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("matzero: ")
    assert captured.err.count("\n") == 1
    bad = argv[-1]
    assert bad in captured.err
