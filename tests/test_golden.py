"""Golden outputs: frozen SHA-256 digests of seeded solves.

Each digest covers the canonical report JSON, the swap trace (giver, item,
taker, repr of the log-gain) and the local-search certificate, so any change
to an allocation, a float in a certificate or the order of swaps shows up.
A digest may only be regenerated for a deliberate behaviour change, and that
change is then recorded in CHANGES.md.

The ``COLD_`` tables hold the digests of the search's former cold start, where
the first participant held all of J before the first swap. Run from that start
(``reference_search.cold_start``), today's solver must still give every one of
them, so a change of digests made by the start alone shows as such.
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
# 20x200 budget-additive and partition-matroid solves: every participant ends saturated.
CASES += [
    (family, mode, 20, 200, 3000 + 10 * f + w)
    for f, family in enumerate(("budget_additive", "partition_matroid_rank"))
    for w, mode in enumerate(WEIGHT_MODES)
]
# m >= n, but one agent values every item at 0: phase 1 finds no covering matching, so the
# report is infeasible with eps_bar != 0, no search and no spending reports.
CASES += [("budget_additive", "symmetric", 20, 200, 1)]

GOLDEN = {
    "additive-symmetric-3x8-s1000": "e252ca239111b69331fe02c01daffc63552c8e6b0a5fa7e3e8aa645c6039828e",
    "additive-symmetric-6x40-s1001": "02c64ad072d3229a1bba2cba2d93e69d92c44f6a91ad3ec432a459fccea548c9",
    "additive-symmetric-12x120-s1002": "d1c18eeec8cb9291e5dbc67a46ed708cc8f428dcf724bf19d34261f957b1c87c",
    "additive-random_rational-3x8-s1005": "f406a083ea4110ddb4c5f8945619602a2089d89d483fa77c21737b858aac5d0e",
    "additive-random_rational-6x40-s1006": "7887762290bfa20489f9cfcbe48eedebc1da4319607bb3bbe6d01f76bcd2aade",
    "additive-random_rational-12x120-s1007": "971f97e04f2290c5c1e74bfd5119921851370cda98279017618cb61006f288f4",
    "budget_additive-symmetric-3x8-s1010": "a1e7ffdd022129185f9f37c8634cfa3f1329a4699963aa0808456174a90f1b47",
    "budget_additive-symmetric-6x40-s1011": "0b6d8808bff95c236aaf651ccdaba2cc95ed255df43a7f83942e12a525b029e2",
    "budget_additive-symmetric-12x120-s1012": "101ab43103919a5d218ae6634aa442bd408dbdd6ffe21cb43b7728d6062fd0e4",
    "budget_additive-random_rational-3x8-s1015": "0ccedfc3698fa3e8d78214a9588c9ec3136c1494759a2b9292fadd5b1f4ccd35",
    "budget_additive-random_rational-6x40-s1016": "f9a9e5196e616a1ee0d5d6c8f6b0effd1e29c9e54b205129992a47e1ad008485",
    "budget_additive-random_rational-12x120-s1017": "8bb09f6957ddf000fd9f104f90bedfb09f9d341795f7fe9d35608bfb75c002a1",
    "coverage-symmetric-3x8-s1020": "62552d960c8479ceef7a8d9f47d501337ef07f7456e411106d90de26a8e6b69e",
    "coverage-symmetric-6x40-s1021": "8cf6e5fbade15af7045d81917992b195aff7a6ea69892e39d84c63dc7a9140e1",
    "coverage-symmetric-12x120-s1022": "1ecf857aec0a3c242810762e65a99bca530a7cf18d873bbc5e5d343198dad05d",
    "coverage-random_rational-3x8-s1025": "d4c7ef96c5d44427cc4a87ec1025c0e1e2a1aa5bcfc8877807b953df96a51a17",
    "coverage-random_rational-6x40-s1026": "366f08cdc84d3f402a069351bf292a0a3aea928d53ba8ffe3052f5bc17483616",
    "coverage-random_rational-12x120-s1027": "218afa7b5576b06c1e8cf2001bf44bfea1ddf87118ea5fc99bd5448c0ea83498",
    "partition_matroid_rank-symmetric-3x8-s1030": "503ab11215c10c57efd45ae10c935385c4b306897d7edb5608ff315db070e6ad",
    "partition_matroid_rank-symmetric-6x40-s1031": "f244dd991372de1835adf427d0966631acc13e3984582fe5509cd6597c2c3e0c",
    "partition_matroid_rank-symmetric-12x120-s1032": "61ee87f8f2db22ebdc6e1e0e57d52e40d3292339c82f5a082a1a777984102c37",
    "partition_matroid_rank-random_rational-3x8-s1035": "e313134871b47e133062f37882e8239a12fdab419f57a94ad3d63862e5692d55",
    "partition_matroid_rank-random_rational-6x40-s1036": "b0d281b380f7d182cf6c900f092630ba79f843df0ebfdf4740337dd0551f3370",
    "partition_matroid_rank-random_rational-12x120-s1037": "bca93aac62504b037eabb53f44f715452ac3f491fc64b8c78ef38ab6e96feb4b",
    "additive-symmetric-4x3-s7": "38660b087ea00a7a071933e49813b10b902aebb6fb46fc42013937d54a86bd71",
    "budget_additive-symmetric-20x200-s3000": "cf7e2d9b3c1b939e53ee65cc2c8f8516be60ba803e59878ef78cf5205ea32c40",
    "budget_additive-random_rational-20x200-s3001": "09e0ebe464e5923737de0e0568e6e08f3bac918dd5d8d459e4bcbf95f5b1a023",
    "partition_matroid_rank-symmetric-20x200-s3010": "105035c0261c7073289661aed9665667b41f2b61886ec3e14b32ae759271a722",
    "partition_matroid_rank-random_rational-20x200-s3011": "fb62a18988c575a948b36698a7172a9e1fced31e7071bd6761246adc702c5293",
    "budget_additive-symmetric-20x200-s1": "93ce39def6c086a62d1ebd48e72782f0d91cf21c29ddce0033a51bd273f368d7",
}

COLD_GOLDEN = {
    "additive-symmetric-3x8-s1000": "44f002d1aea63c5896ca23c4c8afb2e759971f293e59f3b3aee935046615b24e",
    "additive-symmetric-6x40-s1001": "b9738d5783d6e59867abc917feeaa6add9e3bbd252f5987d22d7a95c231fe870",
    "additive-symmetric-12x120-s1002": "8a0f6bd5dcdc8fa1e80cf05f8dbd59211024ba76babe78c821787a6293a9b180",
    "additive-random_rational-3x8-s1005": "7cf5eeb6661775245d90c905ef9359a83b30d306e08cc2e9fb27c5ce1cf94df2",
    "additive-random_rational-6x40-s1006": "c13fa76fc135f08253fc2b00b2ecf85e47a6bb25addfb9f8eb38f6e0b970bdf3",
    "additive-random_rational-12x120-s1007": "72046d58253e24e7a0fbc7bdcd53642e2348c72d50f8d3f57b746363713868a8",
    "budget_additive-symmetric-3x8-s1010": "bb1c314f639869ded5e9cafb3955fe98037c8d365f9f1f0a5698be1a53396d75",
    "budget_additive-symmetric-6x40-s1011": "44798d7a74be5ff232abee7b67df169cab6c751110383f108266d81f2aaad61d",
    "budget_additive-symmetric-12x120-s1012": "b780fcca516059bd687c2d06379be0ad86258628f290e80647d40fc5de859e4d",
    "budget_additive-random_rational-3x8-s1015": "b0f8446b1a217b3b0c1226b38d1f8fb811a12a33c3c87060e81d1f388eab803a",
    "budget_additive-random_rational-6x40-s1016": "d254f829eadb7bbc1408bbef01b0207436eb6b5b5eddb4bc36b35974f3e38a42",
    "budget_additive-random_rational-12x120-s1017": "28a0849e090c55e875a67e8c5794d85a3aaba2f56849a3df9fd179b05cf703ce",
    "coverage-symmetric-3x8-s1020": "d4dfb2f3e535ea64aa8befbb1ea82da8708a2b824734edc5583e118d0e48a12c",
    "coverage-symmetric-6x40-s1021": "06fe398b168173c3c961460e6862f895eaf7a583e91c2668c90f77e34c713af5",
    "coverage-symmetric-12x120-s1022": "d836daaafaa8ef7bd23aad2ae6f1ccea179160e7e880a512c6c0ce2763d218e9",
    "coverage-random_rational-3x8-s1025": "3b579055f7c0d6caf24f658a89dd48b88b4ad8925f973d4022c68de39cbfb473",
    "coverage-random_rational-6x40-s1026": "f6af06e3e8a4d6a3a68273daf0ae833d444923c82616d5f5d574f19880c0e139",
    "coverage-random_rational-12x120-s1027": "b2101ef6bc4c4beb4c4c079affdf9223e6cef7b9f28d4cd58bad95169497a882",
    "partition_matroid_rank-symmetric-3x8-s1030": "f0e4384977dd0286da60f2eaecf0d9e6501894cc191e684bc7afae4bd2b39d48",
    "partition_matroid_rank-symmetric-6x40-s1031": "64ced90601c3e13631f53263279eea6510f2f3c8afb16e4e371cc7a3ee863504",
    "partition_matroid_rank-symmetric-12x120-s1032": "62814df68cc8df671779f82dc6955de4dd8c4f9c570a418b0559d555f84dc0ec",
    "partition_matroid_rank-random_rational-3x8-s1035": "66d483ea0f7541e639b36416727f38856fe3e7441857593ea362381c00bc7de1",
    "partition_matroid_rank-random_rational-6x40-s1036": "f45ce81d99e7977df93b66bce62833bbe6c7bd731556c22712504f6e246e0f52",
    "partition_matroid_rank-random_rational-12x120-s1037": "a506f8367440e984d72c9e3303d8b5750a16edf1fa8f388bf521ead807137fff",
    "additive-symmetric-4x3-s7": "38660b087ea00a7a071933e49813b10b902aebb6fb46fc42013937d54a86bd71",
    "budget_additive-symmetric-20x200-s3000": "23a0d14af7e37d63ebc903913cb27d11e877fec7abf48bd86d7404bf48ccec9c",
    "budget_additive-random_rational-20x200-s3001": "6c1091ad4effe2c141d912ffe730e210105e2ab9c4add4dc39f934395531595c",
    "partition_matroid_rank-symmetric-20x200-s3010": "25e7105df61448fc4821c73868697733e885c5a2dfad69bbd53aeda0b1874098",
    "partition_matroid_rank-random_rational-20x200-s3011": "a5fa7f75e369b418f796b541ac563ded3a44ab3f9f50596216a9c737855f2738",
    "budget_additive-symmetric-20x200-s1": "93ce39def6c086a62d1ebd48e72782f0d91cf21c29ddce0033a51bd273f368d7",
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
    assert sorted(GOLDEN) == sorted(COLD_GOLDEN) == sorted(case_id(c) for c in CASES)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_golden_digest(case):
    assert solve_digest(case) == GOLDEN[case_id(case)]


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_golden_digest_from_the_cold_start(case, cold_start):
    assert solve_digest(case) == COLD_GOLDEN[case_id(case)]


# 100x1000 solves, where the swap search and its recheck are most of the time:
# coverage (no participant saturates) and additive.
AT_SCALE_GOLDEN = {
    "coverage-symmetric-100x1000-s1": "7c5ac7b5ebef0a7f956987669d62f628f4bc4b7a5e508087d41e55d5b2b1ff9d",
    "additive-symmetric-100x1000-s1": "100926be07b626aea55e6371552fecc403f95f83fc45b9baa90a5bf9130d2067",
}
AT_SCALE_CASES = [(family, "symmetric", 100, 1000, 1) for family in ("coverage", "additive")]


@pytest.mark.parametrize("case", AT_SCALE_CASES, ids=case_id)
def test_golden_digest_at_scale(case):
    assert solve_digest(case) == AT_SCALE_GOLDEN[case_id(case)]


# CLI documents: `nswfair solve FILE --exact --verify [--efx] --out` on seeded
# 3x8 instance files, so the `exact` and `efx` blocks are frozen as well.
CLI_CASES = [
    (family, mode, 3, 8, 2000 + 10 * f + w)
    for f, family in enumerate(FAMILIES)
    for w, mode in enumerate(WEIGHT_MODES)
]

CLI_GOLDEN = {
    "additive-symmetric-3x8-s2000": "ecf06f23f2fd28e5c32b22d066fc2ae394d1dd9ab68a269173bff48da0ad7323",
    "additive-random_rational-3x8-s2001": "de374a5ff82944d604b84b6004932e2df6ce9df1985ef680950d211674fe1753",
    "budget_additive-symmetric-3x8-s2010": "a56db6456f41b4aac95dedb6f916b072afb0593d596cf00ddc1018f6d4100c63",
    "budget_additive-random_rational-3x8-s2011": "acc6b86cec25bdeb4ef4dfd8489f0dcf8b135ef8f967b6fc4c825076d299d2f9",
    "coverage-symmetric-3x8-s2020": "8784e62f4ce907ffda624b607391fea6b6ae8b531e19b8105b33336e85411cbf",
    "coverage-random_rational-3x8-s2021": "168deb40dc7359189216093c58b01d5a5cbbc3d224eb5a6d68070d2d8c45af0e",
    "partition_matroid_rank-symmetric-3x8-s2030": "e8b4238ee9fb0e2514536856cafd0022636572671c9c449c244c2b63917d2623",
    "partition_matroid_rank-random_rational-3x8-s2031": "b0ed32991ce959533fb1945fa578ef3c1c25c0896a8145cde1ac96552bca4e98",
}

COLD_CLI_GOLDEN = {
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
    assert sorted(CLI_GOLDEN) == sorted(COLD_CLI_GOLDEN) == sorted(case_id(c) for c in CLI_CASES)


@pytest.mark.parametrize("case", CLI_CASES, ids=case_id)
def test_cli_golden_digest(case, tmp_path, capsys):
    assert cli_digest(case, tmp_path) == CLI_GOLDEN[case_id(case)]


@pytest.mark.parametrize("case", CLI_CASES, ids=case_id)
def test_cli_golden_digest_from_the_cold_start(case, tmp_path, capsys, cold_start):
    assert cli_digest(case, tmp_path) == COLD_CLI_GOLDEN[case_id(case)]


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
