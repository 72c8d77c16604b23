"""Golden outputs: frozen SHA-256 digests of seeded solves.

Each digest covers the canonical report JSON, the swap trace (giver, item,
taker, repr of the log-gain) and the local-search certificate, so any change
to an allocation, a float in a certificate or the order of swaps shows up.
A digest may only be regenerated for a deliberate behaviour change, and that
change is then recorded in CHANGES.md.
"""

import hashlib

import pytest

from nswfair import solve_nsw
from nswfair.generate import FAMILIES, WEIGHT_MODES, random_instance
from nswfair.instance import canonical_json

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
