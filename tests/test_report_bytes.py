"""Report bytes are part of the contract: rerunning a verify suite must
give a byte-identical report.  The digests below pin the JSON-lines
output of every verify suite on small seeded batches that include
instances of more than 11 elements, so a change to an engine, the
elimination or the root isolation that alters any verdict, polynomial,
bracket or field order shows up here."""

import hashlib

from matzero.harness import (
    gen_glued,
    gen_random_linear,
    main_theorem_suite,
    no_lines_suite,
    reports_to_jsonl,
    verify_identities,
    verify_main_theorem,
    verify_no_lines_theorem,
    verify_size_and_cocircuit_bounds,
)


def _digest(reports) -> str:
    return hashlib.sha256(reports_to_jsonl(reports).encode("utf-8")).hexdigest()


def test_report_bytes_are_pinned(monkeypatch):
    monkeypatch.delenv("MZ_SEED", raising=False)
    main = main_theorem_suite(2, 3, 40, seed=3) + [gen_glued(2, 3, 2, 1, seed=0)]
    nolines = no_lines_suite(3, 2, 30, seed=7) + [gen_glued(3, 2, 4, 0, seed=0, delete_count=2)]
    assert max(rec.matroid.n for rec in main) == 13
    assert max(rec.matroid.n for rec in nolines) == 14
    digests = {
        "main": _digest(verify_main_theorem(main, 2, 3)),
        "no-lines": _digest(verify_no_lines_theorem(nolines, 3, 2)),
        "identities": _digest(verify_identities(main)),
        "bounds": _digest(verify_size_and_cocircuit_bounds(main, 2, 3)),
    }
    assert digests == {
        "main": "2939ed3d2113148a2599a0d40f5ad02645cc51cf3ac689c12a7e7632ff6c166d",
        "no-lines": "62c18bc0c47be85bc498ab44c0500ba1e03ad056c5757d037810cfbbf02587e0",
        "identities": "1548d071f175a1611c4d2a1d011c6db65d50153517dcce2715edcd86ebc07258",
        "bounds": "36b09e3f2cffec6174e0a4b0a2c56edc07cd2e4d1c946a6872fb246e977975ff",
    }


def test_identity_report_bytes_over_larger_fields_are_pinned(monkeypatch):
    """verify_identities over GF(3), GF(4) and GF(5): two glued lines
    per field, one of them with a coloop left by its deletions, and
    random matrices over GF(4) and GF(5), so the loop and coloop skip,
    the necks and the telescoping terms are pinned over odd and
    extension fields too."""
    monkeypatch.delenv("MZ_SEED", raising=False)
    recs = [gen_glued(q, 2, 2, 1, seed=seed, delete_count=deleted)
            for q, seed, deleted in ((3, 0, 0), (3, 1, 3), (4, 0, 1), (4, 3, 3), (5, 1, 1), (5, 2, 4))]
    recs += [gen_random_linear(q, r, n, seed)
             for q, r, n, seed in ((4, 3, 8, 1), (4, 2, 7, 3), (5, 3, 9, 2), (5, 3, 6, 4))]
    assert sum(1 for rec in recs if rec.matroid.coloops_mask()) == 3
    reports = verify_identities(recs)
    assert {check.check for check in reports} == {
        "delete-contract", "glued-factorization", "cocircuit-expansion", "telescoping-extension"
    }
    assert _digest(reports) == "6225edce6eee6ceae56468e4a39efbe5ae5483b09c78b7a30c1dd331e2e0e149"
