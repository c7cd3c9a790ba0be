"""Trace bytes pinned across engine versions.

The other trace oracles (``test_engine_equivalence.py``,
``test_obs.py``) compare two runs of the *same* code, so a change to the
round loop that perturbs every run alike would pass them.  This file
pins absolute values instead: for each of the six protocols, in five
configurations, the SHA-256 of the canonical JSONL trace
(``TraceRecorder.dumps()``) and the :class:`NetworkStats` counters.

The configurations cover every stage of the round:

* ``clean`` — no fault plan;
* ``faulty`` — drops, duplicates, delays and inbox reorders, one
  crash-recover node and one amnesia-crash node;
* ``reliable`` — the same fault plan under the reliable-delivery layer;
* ``lossy`` — drops, duplicates and delays only: no crash and no
  reorder, so the engine may skip the crash and reorder work (the
  plan the ``reliable`` benchmark workload runs);
* ``lossy_reliable`` — the lossy plan under the reliable-delivery
  layer.

Regenerate the table only for a change that means to alter traces or
counts, and say so in its description.  Traces are independent of
``PYTHONHASHSEED`` (payloads are fingerprinted with CRC-32 of their
``repr``).
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Tuple

import pytest

from repro.distributed import FaultPlan
from repro.distributed.faults import CrashSpec
from repro.graphs import erdos_renyi_gnp
from repro.obs import Obs, PROTOCOLS, TraceRecorder, run_traced

#: the :class:`NetworkStats` counters pinned, in this order.
COUNTERS = (
    "rounds",
    "messages",
    "total_words",
    "max_message_words",
    "violations",
    "dropped",
    "duplicated",
    "delayed",
    "reordered",
    "retransmissions",
    "dead_links",
    "fault_events_dropped",
)

#: (protocol, config) -> (trace SHA-256, counters).
GOLDEN: Dict[Tuple[str, str], Tuple[str, Tuple[int, ...]]] = {
    ("skeleton", "clean"): (
        "9b6d10042819a51d9be2e0357b1f6c5be0215a45b0f17fd2c15c845c2e7eb6f1",
        (20, 475, 1061, 11, 0, 0, 0, 0, 0, 0, 0, 0),
    ),
    ("skeleton", "faulty"): (
        "b77aa1a3db1ae137a659d95d7b7be2acff4134cb3cdb7b98d9b0213d768a9ad2",
        (36, 534, 1206, 11, 0, 31, 29, 24, 7, 0, 0, 0),
    ),
    ("skeleton", "reliable"): (
        "8950bc09f39dc2b7d2c0e231a1df1fb18d9de58622a6cfadb9dc2195a8c55d76",
        (567, 54330, 206297, 19, 23, 4129, 4116, 3953, 1294, 6937, 0,
         13213),
    ),
    ("baswana_sen", "clean"): (
        "91efccc4a7dcdaa4352f6d255dadbeef2d2cacf85bc33ac0b66ccbe90f3c71fd",
        (6, 379, 379, 1, 0, 0, 0, 0, 0, 0, 0, 0),
    ),
    ("baswana_sen", "faulty"): (
        "3a540665de1248b2b42cf77b7fcadd3a17e2b9414fd3252a2b1dfc655cbe43e9",
        (6, 343, 343, 1, 0, 25, 17, 16, 3, 0, 0, 0),
    ),
    ("baswana_sen", "reliable"): (
        "f948346b6f689aca291e62dbac636e18d36a7d7df9dbcec34e9fe2f74765c0b0",
        (33, 1660, 5928, 11, 0, 151, 95, 92, 35, 209, 0, 94),
    ),
    ("additive", "clean"): (
        "386e4bdd8571a78a029dc96b72642b481a39cb2cecb829c37ddd1aa380b73bc8",
        (10, 846, 5562, 24, 0, 0, 0, 0, 0, 0, 0, 0),
    ),
    ("additive", "faulty"): (
        "8efb40617360e9b9a334ded5c247f9e57b6a0a7f5e755a03ae66db7e3840a4c6",
        (13, 894, 5508, 24, 0, 75, 48, 40, 13, 0, 0, 0),
    ),
    ("additive", "reliable"): (
        "659530701dcabdcb1e60c30227a3a857e6d86d7c2c08c17fc7a091a74be88f17",
        (680, 63940, 247130, 36, 0, 4909, 4869, 4616, 1549, 8288, 0,
         15412),
    ),
    ("fibonacci", "clean"): (
        "5ec19024be7dbbbf335460f0220f1afd1edd3e93f06249ef2b78239a35a80724",
        (17, 478, 960, 8, 0, 0, 0, 0, 0, 0, 0, 0),
    ),
    ("fibonacci", "faulty"): (
        "7acd0d65243993180d7bdd79e555d8bf640af7e1d5a2edffe2b72155ff8dabc4",
        (17, 458, 889, 8, 0, 20, 18, 10, 4, 0, 0, 0),
    ),
    ("fibonacci", "reliable"): (
        "0b9401e3266cb90574902055a3986bfe46b50ecb11ae96fec1cb861a535226ec",
        (91, 5749, 22181, 16, 0, 554, 380, 367, 127, 853, 0, 836),
    ),
    ("survey", "clean"): (
        "512fef2fb800c3443ce54f710409d9ecb9e9dc4ff3b0761c12bbb02454e79ccb",
        (3, 640, 24716, 92, 0, 0, 0, 0, 0, 0, 0, 0),
    ),
    ("survey", "faulty"): (
        "efdf7088c4ce28a34774b45a978ad53827b2b867ee3830ddf9132b7252c6a097",
        (3, 626, 23396, 90, 0, 37, 26, 14, 7, 0, 0, 0),
    ),
    ("survey", "reliable"): (
        "cf2bdca285433b58cd12151e598eb75161625defc3bfa96f9bf4480ccc41baab",
        (19, 1129, 35288, 150, 0, 122, 74, 63, 25, 170, 0, 5),
    ),
    ("deterministic", "clean"): (
        "0dd16964dd104ebac7235c854a43ce4e95d1fd10e2048238a4a35b7a06f9b1e6",
        (69, 1801, 3566, 4, 0, 0, 0, 0, 0, 0, 0, 0),
    ),
    ("deterministic", "faulty"): (
        "afac7772ccfa62ef0a2dd48338744600bb05d647f3aa4980a11d1c298ab63fa9",
        (119, 1864, 3728, 4, 0, 93, 82, 84, 37, 0, 0, 38),
    ),
    ("deterministic", "reliable"): (
        "d338aac8da38ab2e4bab64d97878944e02fa79d74374baf07bc1bfd3f83d6742",
        (645, 59001, 218318, 15, 0, 4374, 4239, 4173, 1419, 7475, 0,
         13926),
    ),
    ("skeleton", "lossy"): (
        "5382c2dd188184b06541abed5a6eeea234c979cd7b1d8b4d8c130ddfccbd1b51",
        (28, 487, 1114, 11, 0, 20, 31, 28, 0, 0, 0, 0),
    ),
    ("skeleton", "lossy_reliable"): (
        "156a5ad6c358577e7240109546bab8f73bbc19ceb9742ed94b59ae55712f6061",
        (578, 55083, 207457, 17, 19, 4231, 4112, 4074, 0, 7205, 0, 12161),
    ),
    ("baswana_sen", "lossy"): (
        "25d8b78c7d5b48452be27eb0c057f560bed2c59bb6fdc734bce17d169f3f111c",
        (6, 365, 365, 1, 0, 15, 19, 24, 0, 0, 0, 0),
    ),
    ("baswana_sen", "lossy_reliable"): (
        "646ba8130a7721a33cb1f1dced33077fc0cea740322dd863fbcd27cf4f57f323",
        (28, 1639, 5728, 11, 0, 106, 102, 90, 0, 171, 0, 42),
    ),
    ("additive", "lossy"): (
        "ae24f71a018dace8141604c80156406a62365b16cf17073774f93921022a6727",
        (12, 906, 5692, 24, 0, 47, 46, 41, 0, 0, 0, 0),
    ),
    ("additive", "lossy_reliable"): (
        "e70cbf5ab8bde017eee7f25309765b8ad23edae435162826d6a326ec54a1051f",
        (661, 62560, 246508, 40, 0, 4722, 4748, 4863, 0, 8221, 0, 13873),
    ),
    ("fibonacci", "lossy"): (
        "3c8b3edd9bbb2695f9ca29bf14f8749c8692dcaf3ed2b22193ceda9c72d93f47",
        (17, 458, 889, 8, 0, 20, 18, 10, 0, 0, 0, 0),
    ),
    ("fibonacci", "lossy_reliable"): (
        "bcfeca246fd4a54e0a589efba32cebab32fce31cef9eb8805351d7b1cd81d2c0",
        (76, 5742, 21576, 15, 0, 453, 392, 396, 0, 737, 0, 729),
    ),
    ("survey", "lossy"): (
        "ea7bc19f969698c5b3f4b759438b77fb83129f0cb98f8afabaab13a098afdfcb",
        (3, 638, 24168, 90, 0, 27, 25, 16, 0, 0, 0, 0),
    ),
    ("survey", "lossy_reliable"): (
        "9c675182b5f43231fa23bd428c9f8d1303e574f490568ce9db2d6c593d20a9ae",
        (17, 1092, 33987, 150, 0, 81, 66, 74, 0, 137, 0, 0),
    ),
    ("deterministic", "lossy"): (
        "cc3c1176d14244e4db96056be9e4b2f7784944091989d3525dd6a7e429487bf2",
        (119, 1864, 3728, 4, 0, 88, 81, 84, 0, 0, 0, 0),
    ),
    ("deterministic", "lossy_reliable"): (
        "72b9ba7bcd1f81b121038568c32e83dd39aff18e905b4f75e63351021a799889",
        (632, 58466, 217970, 15, 0, 4336, 4203, 4310, 0, 7431, 0, 12593),
    ),
}

CONFIGS = ("clean", "faulty", "reliable", "lossy", "lossy_reliable")


def _fault_plan() -> FaultPlan:
    return FaultPlan(
        seed=5,
        drop_rate=0.05,
        duplicate_rate=0.05,
        delay_rate=0.05,
        reorder_rate=0.1,
        crashes=[CrashSpec(3, 2, 6), CrashSpec(17, 4, 9, amnesia=True)],
    )


def _lossy_plan() -> FaultPlan:
    return FaultPlan(
        seed=5, drop_rate=0.05, duplicate_rate=0.05, delay_rate=0.05
    )


def _run(protocol: str, config: str) -> Tuple[str, Tuple[int, ...]]:
    kwargs: Dict[str, Any] = {}
    if config in ("faulty", "reliable"):
        kwargs["fault_plan"] = _fault_plan()
    elif config.startswith("lossy"):
        kwargs["fault_plan"] = _lossy_plan()
    if config.endswith("reliable"):
        kwargs["reliable"] = True
    recorder = TraceRecorder()
    _, stats = run_traced(
        protocol,
        erdos_renyi_gnp(40, 0.12, seed=3),
        seed=11,
        obs=Obs(recorder=recorder),
        **kwargs,
    )
    digest = hashlib.sha256(recorder.dumps().encode("utf-8")).hexdigest()
    return digest, tuple(getattr(stats, name) for name in COUNTERS)


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_trace_and_counts_match_golden(protocol, config):
    digest, counts = _run(protocol, config)
    want_digest, want_counts = GOLDEN[(protocol, config)]
    assert dict(zip(COUNTERS, counts)) == dict(zip(COUNTERS, want_counts))
    assert digest == want_digest
