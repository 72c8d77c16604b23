"""Golden outputs: frozen SHA-256 digests of seeded solves.

Each digest covers the canonical report JSON, the swap trace (giver, item,
taker, repr of the log-gain) and the local-search certificate, so any change
to an allocation, a float in a certificate or the order of swaps shows up.
A digest may only be regenerated for a deliberate behaviour change, and that
change is then recorded in CHANGES.md.
"""

import builtins
import hashlib
import math
import sys

import pytest

from nswfair import solve_nsw
from nswfair.cli import main
from nswfair.generate import FAMILIES, WEIGHT_MODES, random_instance
from nswfair.instance import canonical_json, save_instance

EPS = 0.1
SIZES = ((3, 8), (6, 40), (12, 120))

CASES = [
    (family, mode, n, m, 1000 + 10 * f + 5 * w + s)
    for f, family in enumerate(FAMILIES)
    for w, mode in enumerate(WEIGHT_MODES)
    for s, (n, m) in enumerate(SIZES)
] + [("additive", "symmetric", 4, 3, 7)]  # m < n: the infeasible report

GOLDEN = {
    "additive-symmetric-3x8-s1000": "44f002d1aea63c5896ca23c4c8afb2e759971f293e59f3b3aee935046615b24e",
    "additive-symmetric-6x40-s1001": "013eb8be03051b31d4c0fba520f9e0d29b1d02aba59ceea42406decbe4f77571",
    "additive-symmetric-12x120-s1002": "aff1283797e74150dbb4d3fa8ea803e5d135d7149c7bb06b65f2dd0c9530d6c9",
    "additive-random_rational-3x8-s1005": "7cf5eeb6661775245d90c905ef9359a83b30d306e08cc2e9fb27c5ce1cf94df2",
    "additive-random_rational-6x40-s1006": "c13fa76fc135f08253fc2b00b2ecf85e47a6bb25addfb9f8eb38f6e0b970bdf3",
    "additive-random_rational-12x120-s1007": "87c7b46df64151b9b50c471010db1dbb125fde4058a7f0ae5f154278757e9e27",
    "budget_additive-symmetric-3x8-s1010": "bb1c314f639869ded5e9cafb3955fe98037c8d365f9f1f0a5698be1a53396d75",
    "budget_additive-symmetric-6x40-s1011": "44798d7a74be5ff232abee7b67df169cab6c751110383f108266d81f2aaad61d",
    "budget_additive-symmetric-12x120-s1012": "b780fcca516059bd687c2d06379be0ad86258628f290e80647d40fc5de859e4d",
    "budget_additive-random_rational-3x8-s1015": "b0f8446b1a217b3b0c1226b38d1f8fb811a12a33c3c87060e81d1f388eab803a",
    "budget_additive-random_rational-6x40-s1016": "d254f829eadb7bbc1408bbef01b0207436eb6b5b5eddb4bc36b35974f3e38a42",
    "budget_additive-random_rational-12x120-s1017": "28a0849e090c55e875a67e8c5794d85a3aaba2f56849a3df9fd179b05cf703ce",
    "coverage-symmetric-3x8-s1020": "d4dfb2f3e535ea64aa8befbb1ea82da8708a2b824734edc5583e118d0e48a12c",
    "coverage-symmetric-6x40-s1021": "049878c3fb3199a317c3cb50cd49bb1b5eaff4acb129793058ba8d45c2cfbd7b",
    "coverage-symmetric-12x120-s1022": "f593e08da4388b290596c8ae4f18cf89bd983abaa6db12654df52cb68189bb96",
    "coverage-random_rational-3x8-s1025": "3b579055f7c0d6caf24f658a89dd48b88b4ad8925f973d4022c68de39cbfb473",
    "coverage-random_rational-6x40-s1026": "b56de40446fa5e9b3f41277c127d187b8ca8267101771b071472cf233552d386",
    "coverage-random_rational-12x120-s1027": "5f456575e5d2ab1710af07ee455f9758ec4e9561151b09d6aba2952426b29465",
    "partition_matroid_rank-symmetric-3x8-s1030": "f0e4384977dd0286da60f2eaecf0d9e6501894cc191e684bc7afae4bd2b39d48",
    "partition_matroid_rank-symmetric-6x40-s1031": "64ced90601c3e13631f53263279eea6510f2f3c8afb16e4e371cc7a3ee863504",
    "partition_matroid_rank-symmetric-12x120-s1032": "62814df68cc8df671779f82dc6955de4dd8c4f9c570a418b0559d555f84dc0ec",
    "partition_matroid_rank-random_rational-3x8-s1035": "66d483ea0f7541e639b36416727f38856fe3e7441857593ea362381c00bc7de1",
    "partition_matroid_rank-random_rational-6x40-s1036": "f45ce81d99e7977df93b66bce62833bbe6c7bd731556c22712504f6e246e0f52",
    "partition_matroid_rank-random_rational-12x120-s1037": "a506f8367440e984d72c9e3303d8b5750a16edf1fa8f388bf521ead807137fff",
    "additive-symmetric-4x3-s7": "38660b087ea00a7a071933e49813b10b902aebb6fb46fc42013937d54a86bd71",
}


def case_id(case) -> str:
    family, mode, n, m, seed = case
    return f"{family}-{mode}-{n}x{m}-s{seed}"


def solve_digest(case) -> str:
    family, mode, n, m, seed = case
    report = solve_nsw(random_instance(family, n, m, seed, mode), EPS)
    trace, certificate = [], None
    if report.search is not None:
        trace = [[r.giver, r.item, r.taker, repr(r.log_gain)] for r in report.search.trace]
        cert = report.search.certificate
        certificate = [cert.triples_checked, repr(cert.max_log_gain), repr(cert.threshold)]
    blob = canonical_json(report.to_json()) + canonical_json({"trace": trace, "certificate": certificate})
    return hashlib.sha256(blob.encode()).hexdigest()


def test_golden_set_covers_every_case():
    assert sorted(GOLDEN) == sorted(case_id(c) for c in CASES)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_golden_digest(case):
    assert solve_digest(case) == GOLDEN[case_id(case)]


# CLI documents: `nswfair solve FILE --exact --verify [--efx] --out` on seeded
# 3x8 instance files, so the `exact` and `efx` blocks are frozen as well.
CLI_CASES = [
    (family, mode, 3, 8, 2000 + 10 * f + w)
    for f, family in enumerate(FAMILIES)
    for w, mode in enumerate(WEIGHT_MODES)
]

CLI_GOLDEN = {
    "additive-symmetric-3x8-s2000": "3a7d4a3208a3b5002104cca4d476b9741f5465944f6e4adf584349e832175afc",
    "additive-random_rational-3x8-s2001": "6b005e7cf59f93c34043dff1004822649f7110adf9ece2576de5c302ad8d3047",
    "budget_additive-symmetric-3x8-s2010": "012fa7b75f588e61b5deee5ef39cbbfa719d49060c8edac070bc328dd2bde797",
    "budget_additive-random_rational-3x8-s2011": "b2f3e5f5e3b979b1769d671166b4de1db00bfe4fb5664212ac72fe11dc8578a1",
    "coverage-symmetric-3x8-s2020": "02aee07248889035f101b679464b4649efc89a3ef3e01eaa734ca4441ac4ba53",
    "coverage-random_rational-3x8-s2021": "fb63cf8c789edb704f42d225a244c0f67d992fb316c257e1e9d7596f151cf1b0",
    "partition_matroid_rank-symmetric-3x8-s2030": "2b32b2f12780e941bb4fc0b76c03b5b6cb8da9e1bf35e397a134c1d0da3bd6ac",
    "partition_matroid_rank-random_rational-3x8-s2031": "8a022fc43d824eedf57fab63914f10802c4b844b8e2328e910b9a2cee4c881f2",
}


def cli_digest(case, tmp_path) -> str:
    family, mode, n, m, seed = case
    inst = random_instance(family, n, m, seed, mode)
    path, out = tmp_path / "instance.json", tmp_path / "report.json"
    save_instance(inst, str(path))
    argv = ["solve", str(path), "--exact", "--verify", "--out", str(out)]
    if inst.is_symmetric():
        argv.append("--efx")
    assert main(argv) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def test_cli_golden_set_covers_every_case():
    assert sorted(CLI_GOLDEN) == sorted(case_id(c) for c in CLI_CASES)


@pytest.mark.parametrize("case", CLI_CASES, ids=case_id)
def test_cli_golden_digest(case, tmp_path, capsys):
    assert cli_digest(case, tmp_path) == CLI_GOLDEN[case_id(case)]


# `nswfair exact FILE --out` on the same files: opt_log, the lexicographically
# smallest argmax and the allocation count, frozen from the per-allocation loop.
EXACT_GOLDEN = {
    "additive-symmetric-3x8-s2000": "7d6873682c55860c08dd8e1e25c2bce8beb7003ed0373b07b0cd0e60e19e10dc",
    "additive-random_rational-3x8-s2001": "5365c7c418caa0f8bf8fa6eac506dc739126e7f79a12aa462b59fb939ebac25c",
    "budget_additive-symmetric-3x8-s2010": "b9ccf76c5e1d8ff8fd02c85e1c90e79187243ce1646c8999a262036a315aa704",
    "budget_additive-random_rational-3x8-s2011": "2b1d69744d8ac5931be4ff20985999cdf96dd703e349e581c497394299c29fb2",
    "coverage-symmetric-3x8-s2020": "68deb12563e97d8a413aa0ec7d0c44b08a4c4c03430d860aae4ca5ec2d10f4f4",
    "coverage-random_rational-3x8-s2021": "3cd057cd86f73da4995393804cb251f08b171f7b2c2a35f37b28ee988707b275",
    "partition_matroid_rank-symmetric-3x8-s2030": "980d96561040b6f79affe4d7004f54ea46b38a50b80986f3e2fa923b910ae068",
    "partition_matroid_rank-random_rational-3x8-s2031": "16bcc101be9b54b7d43c3db2ebbd068e1e865c5019f7628820b24c3616830901",
}


def exact_digest(case, tmp_path) -> str:
    family, mode, n, m, seed = case
    path, out = tmp_path / "instance.json", tmp_path / "exact.json"
    save_instance(random_instance(family, n, m, seed, mode), str(path))
    assert main(["exact", str(path), "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def test_exact_golden_set_covers_every_case():
    assert sorted(EXACT_GOLDEN) == sorted(case_id(c) for c in CLI_CASES)


@pytest.mark.parametrize("case", CLI_CASES, ids=case_id)
def test_exact_golden_digest(case, tmp_path, capsys):
    assert exact_digest(case, tmp_path) == EXACT_GOLDEN[case_id(case)]


# Python 3.12 made builtin sum() of floats compensated (Neumaier summation), so
# a float total taken with sum() can round differently from one interpreter to
# the next. math.fsum, exact then rounded once, stands in for it here: with it
# in place of sum() inside the package, every digest must stay the same.
def _compensated_sum(iterable, start=0):
    terms = list(iterable)
    if terms and all(type(t) is float for t in terms) and type(start) in (int, float):
        return math.fsum([start, *terms])
    return builtins.sum(terms, start)


@pytest.fixture
def compensated_sum(monkeypatch):
    for name, module in list(sys.modules.items()):
        if name == "nswfair" or name.startswith("nswfair."):
            monkeypatch.setattr(module, "sum", _compensated_sum, raising=False)


def test_compensated_sum_differs_from_the_left_fold():
    assert _compensated_sum([0.1] * 10) == 1.0 != builtins.sum([0.1] * 10)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_golden_digest_under_compensated_sum(case, compensated_sum):
    assert solve_digest(case) == GOLDEN[case_id(case)]


@pytest.mark.parametrize("case", CLI_CASES, ids=case_id)
def test_cli_golden_digest_under_compensated_sum(case, tmp_path, capsys, compensated_sum):
    assert cli_digest(case, tmp_path) == CLI_GOLDEN[case_id(case)]
