"""Golden digests of exact trajectories.

Each case's ``to_csv()`` output is pinned by its sha256, so any change to
the resolver, the event loop or the export that moves a single bit of a
recorded time, state, selection or coefficient fails here.  The JSON
trajectory and the JSON report of every case are pinned the same way, and a
few cases also pin their exports at stride 0.25, with samples between
events.  The corpus covers every file in ``scenarios/``, the line
staircases and stubborn-leader chains of the reference families, and random
graphs whose surface sets run through both the dense path and projected
Gauss-Seidel (n = 160 reaches surface sets of 75 agents) under all three
selection policies, random graphs under a general quantizer with uneven gaps
and thresholds off the midpoints, and schedules that switch many times.

A deliberate change of outputs regenerates the digests with
``python tests/test_golden.py`` and needs a CHANGES.md entry that gives the
largest ulp difference and shows ``audit_trajectory`` still passes.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import kernel_path
from qcl import (
    FixedAlpha,
    GeneralQuantizer,
    GraphSchedule,
    convergence_report,
    SequentialSlow,
    Sliding,
    Trajectory,
    example1_line,
    example2_sliding,
    random_connected,
    scenario_from_json,
    simulate,
)
from qcl._json import dumps

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

#: Thirteen levels with gaps from 0.15 to 1.15, each threshold at its own
#: fraction (0.3 to 0.7) of its gap, none at the midpoint.
_LEVELS = (-0.4, -0.1, 0.35, 0.6, 1.1, 1.45, 2.6, 2.75, 3.05, 3.6, 4.3, 4.5, 5.2)
UNEVEN = GeneralQuantizer(_LEVELS, tuple(
    lo + f * (hi - lo) for lo, hi, f in zip(_LEVELS, _LEVELS[1:], (
        0.3, 0.62, 0.45, 0.7, 0.35, 0.5, 0.41, 0.66, 0.3, 0.58, 0.37, 0.69))))


def _general(n: int, seed: int, policy):
    """A random graph under ``UNEVEN``, with states from below its lowest
    threshold to above its highest."""
    config = random_connected(n, seed=seed, x0_cells=6.2, policy=policy)
    return replace(config, quantizer=UNEVEN, x0=tuple(v - 0.7 for v in config.x0))


def _switching(n: int, seed: int):
    """Four random graphs in turn over ten segments of uneven lengths, the
    last of which holds forever."""
    config = random_connected(n, seed=seed, switching=(4, 1.0), delta=0.05, x0_cells=16.0)
    graphs = [g for _, g in config.schedule.segments]
    starts = (0.0, 0.13, 0.37, 0.41, 0.9, 1.7, 2.3, 2.35, 3.1, 4.7)
    return replace(config, schedule=GraphSchedule(
        tuple((t, graphs[k % 4]) for k, t in enumerate(starts)), 0.5, 2.0))


def _cases() -> dict:
    cases = {}
    for path in sorted(SCENARIOS.glob("*.json")):
        cases[path.stem] = lambda path=path: scenario_from_json(json.loads(path.read_text()))
    for n in range(3, 13):
        for delta in (1.0, 0.1, 0.01):
            cases[f"line{n}-d{delta}"] = lambda n=n, delta=delta: example1_line(n, delta)
    for n in range(3, 11):
        for b in (1.0, 3.0):
            cases[f"chain{n}-b{b}"] = lambda n=n, b=b: example2_sliding(n, 1.0, b)
    # Pins sit on agents that reach a threshold early, so the pinned holds
    # are exercised and released.
    for n, seed, pins in ((40, 1, {36: 0.5, 6: 0.25}), (40, 2, {20: 0.5, 31: 0.25}),
                          (160, 1, {47: 0.5, 136: 0.25})):
        for policy in (Sliding(), SequentialSlow(), FixedAlpha(pins)):
            name = f"random{n}-s{seed}-{policy.to_json()['type']}"
            cases[name] = lambda n=n, seed=seed, policy=policy: random_connected(
                n, seed=seed, policy=policy)
    for n, seed, policy in ((6, 3, Sliding()), (9, 4, SequentialSlow()),
                            (12, 5, FixedAlpha({2: 0.25, 7: 0.5}))):
        cases[f"general{n}-{policy.to_json()['type']}"] = \
            lambda n=n, seed=seed, policy=policy: _general(n, seed, policy)
    # 78 switches of a period of three graphs, and a schedule of ten segments.
    cases["periodic5-many-switches"] = lambda: random_connected(
        5, seed=6, switching=(3, 0.0123), delta=1 / 16, x0_cells=24.0)
    cases["switching6"] = lambda: _switching(6, 7)
    return cases


CASES = _cases()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def csv_digest(name: str) -> str:
    return sha256(simulate(CASES[name]()).to_csv())


def digests(name: str) -> tuple[str, str, str, tuple[str, str] | None]:
    """Digests of one run's CSV, trajectory JSON, report JSON and, for the
    cases in ``STRIDE_DIGESTS``, the JSON and CSV at stride 0.25."""
    config = CASES[name]()
    traj = simulate(config)
    stride = None
    if name in STRIDE_DIGESTS:
        stride = (sha256(dumps(traj.to_json_obj(stride=0.25))), sha256(traj.to_csv(stride=0.25)))
    return (sha256(traj.to_csv()), sha256(dumps(traj.to_json_obj())),
            sha256(dumps(convergence_report(traj, config).to_json_obj())), stride)


def json_digests(name: str) -> tuple[str, str, tuple[str, str] | None]:
    """``digests`` without the CSV."""
    return digests(name)[1:]


DIGESTS = {
    "chain_n3": "00c3b83df627a99b77153b0063c4fd0233d05816fe2fd5c0be6f56f24d70f647",
    "chain_n4": "446d2670d5903c31fe8825022afe0de075140a92c5347ea2588cc850265846f5",
    "chain_n6_heavy": "6904ab0673597c5f4af733ab992f0fa465c741c4b1c3c658cef687320fc252d4",
    "line_n3": "0138d4cd77cd9f0ddcedf8b17ad24362c073721b934ce02f83c84884695b5eff",
    "line_n4": "df7b1bbf5445f08d75effb3111e61c3a388d6dcfdf8826be2847f6a28565eadd",
    "line_n6": "f03162103b1e0cb17e0001730f4ce2a06812cb4d574a1cef3db866dc58c1aec4",
    "line_n6_fine": "fb8d9d22ec69168898c485a257c35d2b64458ac1a716c48c79c793ba9f24b17a",
    "random_balanced_n5": "e31f91f2f337c1a0b1c25f525c1d85efb04f21265c844640171ee1d102ead421",
    "random_periodic_n4": "91486e4cfa786761bc49da7df22ac54ff2ed1bf0dd1494ca01503464794ab6f3",
    "random_static_n5": "611e8f31688347e552e0fd403a23d7246b9a5316611b6a033d16b85069a34c2a",
    "line3-d1.0": "0138d4cd77cd9f0ddcedf8b17ad24362c073721b934ce02f83c84884695b5eff",
    "line3-d0.1": "4e3bb6ce1d96a1926edd1ba5207494bd2e00a35301d1a9f9dfdf6f6ae404d817",
    "line3-d0.01": "382a9620a00a123cb653d56a50a8c5b9ef0845a8b4d8b60906f588efa3b7fead",
    "line4-d1.0": "df7b1bbf5445f08d75effb3111e61c3a388d6dcfdf8826be2847f6a28565eadd",
    "line4-d0.1": "b6cfcfe7fb7fce4430ffb76b64bfa3e5d7ea29e5023fd30471365a0ea2297b1a",
    "line4-d0.01": "51ea3e622c2a35789a654b3b3cc4f4107be2bb8a9d8bdbed8ed7ba3c295c0fc1",
    "line5-d1.0": "d5f76729746e3c96436c6fed28eecae02e48967d5cc6f3ea71a7826544b6c150",
    "line5-d0.1": "f17421b878eec2e3ca9ba3037edb839a5e176bc99cb4e1bb4ec27bdd3b7a3d99",
    "line5-d0.01": "806625033428be4b0c5880ec7db422201d829fd5a7083955c40d5e85009cdc03",
    "line6-d1.0": "f03162103b1e0cb17e0001730f4ce2a06812cb4d574a1cef3db866dc58c1aec4",
    "line6-d0.1": "7abf219e606d124113ff49d4b1fd774b882595192f1a537d91a3bb3bf3f8d770",
    "line6-d0.01": "6e9187423114cc56168893a3362e53ff28a9d5da78093f140d96f55a3f75774b",
    "line7-d1.0": "e1eee1c8c052e336f355ccbfef965004c0a5fd9f98835b19ac1e05a678059045",
    "line7-d0.1": "299588845448725f82d13fe32b8afce214a2e80ae5925fa55fb0f00409c6f316",
    "line7-d0.01": "271a95334ae9ad1a5454ceb8a169a0d43ab175b4d777e484ac8c34e0475358e6",
    "line8-d1.0": "468c1b34dd109b2bed6c903097c4a21e8be418be748cc94e0d95bbc96f80c7a9",
    "line8-d0.1": "5b1071ac1c30cc983c2dd222000357b66c37b2d700cd09d670efede4367e4605",
    "line8-d0.01": "9c0eb5bf94bac2d55d0981c8f97d93e52ee45a8dfdd0a710db2cf3fdbd83a25c",
    "line9-d1.0": "c37489a4a6f1f25c787307b497703d7ad094bb25cdb41ba55cf440643310ece8",
    "line9-d0.1": "55d30e1ed306b86a6ca4c24af26b773129f697915c7dfd8f82ce916bd5b4fcde",
    "line9-d0.01": "d2c020260b21215381b4d4be31dc56075555c2d24cf1bd86dc53b770e2c5c2fc",
    "line10-d1.0": "da31c9e87ca146bba4ce4177494b7e0a71e6a306ec249450bb824db258b4a347",
    "line10-d0.1": "2ae6119989bf19d31d11a87a313e0dff1527ad92ef14e3ef92bee82b9aa79ea0",
    "line10-d0.01": "e1b4742826482402ab9f747e9a86ecb769b9861cac47ae46440a4b9bd2cfa3fa",
    "line11-d1.0": "12f94aec36a96578d73774896875d4965ff67d0ef63e7726dea9927727dbacb0",
    "line11-d0.1": "b32ef2b42c9b921a756f3a2336b19834752efeaf64ab2d8f52d35805d76feef4",
    "line11-d0.01": "b1ae9eb43bdb6473097d19e3b3197720f02644ce4bb371a5977d8bfa2dafc833",
    "line12-d1.0": "0de8652b98de8cb9d22ccce330688cf764fdef0e81370cc8b60c89287e1ecc0a",
    "line12-d0.1": "2b3e0d244e51b87b7768ae28f9a452b92e86bd53b4411ff32c6963045f582862",
    "line12-d0.01": "d2c941a93c5cee7feb5da5457492fe79c6ab6386e74e66a068724c9a210bca1e",
    "chain3-b1.0": "00c3b83df627a99b77153b0063c4fd0233d05816fe2fd5c0be6f56f24d70f647",
    "chain3-b3.0": "e620f774fa8e0a16604dd12f547af4bfba1a695603eb15a0fd74cd633044d34c",
    "chain4-b1.0": "446d2670d5903c31fe8825022afe0de075140a92c5347ea2588cc850265846f5",
    "chain4-b3.0": "db1d9ef7de8fc66271745885abb0072ba207d1f181e60565ed8b79f5d7927ba5",
    "chain5-b1.0": "54894d5db2e50dd8fc132b1c98f839e777d6761e3593467e22463b7f1af505ef",
    "chain5-b3.0": "3c995024682f0435b2021595ee3f09006f2a6414807d5671825fd7546ebf4ca9",
    "chain6-b1.0": "bbfa1280b4f4b5b3b4b0b59469320e42ff618487c1e64467885810594dda9236",
    "chain6-b3.0": "23ca61faf48904d4f85af10aa1de19f545cc2c4924d99ba7379790996ab8cc0c",
    "chain7-b1.0": "fc43a3a4d6639ac0384e341755decb8ad668ab256769d4897fcb18153dd6f6f6",
    "chain7-b3.0": "83e1f64d60fb77be0f9d7b58718806faef030eea991cec534888babb9ac8ebc2",
    "chain8-b1.0": "553962cd10d7d7a8ae7c50877613ec303b3ebcf91a5a0b73fb38718232cf8d02",
    "chain8-b3.0": "47ab617375df33c939fe25e0118686e63edba7b8818a5a524eba1c49e8019a5f",
    "chain9-b1.0": "229e187fa36231d25f1bad0704cdcbfda43c962214e71c5159884a272d42534e",
    "chain9-b3.0": "2c4a93f8fdf9321b6ef76a50f3db10703e7ecbfa9e282cfb7addb8ed4c5a2b75",
    "chain10-b1.0": "38e706d685f507084884d92ed5c94d0f30b3ccf61ebbf5224f8adf6ee051dd40",
    "chain10-b3.0": "07572a1148eb8ca7c4a677fc95b384f84d34a84bcd50c2832332098909ae76a4",
    "random40-s1-sliding": "8b97d6e6f26f9687c7862d715e922a7e5191f6cbe84b95a5dd15686961618fcf",
    "random40-s1-sequential-slow": "8b97d6e6f26f9687c7862d715e922a7e5191f6cbe84b95a5dd15686961618fcf",
    "random40-s1-fixed-alpha": "8b97d6e6f26f9687c7862d715e922a7e5191f6cbe84b95a5dd15686961618fcf",
    "random40-s2-sliding": "c5b5f34a9702b4a1139b80e5650b620d245cb1c67ed6230a1452ff515da93ee3",
    "random40-s2-sequential-slow": "19d5728c6d77a83292b21188018bde81015bb6964158c875350643e3ddca9764",
    "random40-s2-fixed-alpha": "c5b5f34a9702b4a1139b80e5650b620d245cb1c67ed6230a1452ff515da93ee3",
    "random160-s1-sliding": "7a83730141e2f7529d4eb618d61aa348a3dd15e52bdf81281bdb7a77307d4f0d",
    "random160-s1-sequential-slow": "ddc250b9119ad90f60e3206d9befa823becaa23252126210f015030762d22689",
    "random160-s1-fixed-alpha": "7a83730141e2f7529d4eb618d61aa348a3dd15e52bdf81281bdb7a77307d4f0d",
    "general6-sliding": "9aeaa25295682016318b2de845a97f5becc3432feb8331ec89e31cb9839113f9",
    "general9-sequential-slow": "c1784d0c2da53f0eb6def1317fbf15e8a3cf9ac3068e12b907fc284b237d9a1a",
    "general12-fixed-alpha": "8dec7961ebe8aabfde91d5bddadcb170533f2d4ee8114692f481726c9e7c8d6c",
    "periodic5-many-switches": "0ef3b2e10651e4f6f159397b13e677a644278cd5e1a4838e0a1383405c66d6c7",
    "switching6": "d978112ff8174278780574f1d7a6a465535f5885d4635b8e7b69b96418424dcc",
}


#: sha256 of ``dumps(to_json_obj())`` and of the ``convergence_report`` JSON.
JSON_DIGESTS = {
    "chain_n3": ("47c2ca9f8eb7e9372ff7537b878fa40da94f48e52cd09afe8ee6a1db95362e4d",
        "d2a319976297bd0693526ad1f1887907c62913ca9cac39b41c8a32902df6729f"),
    "chain_n4": ("d75d1941bc34e4f9b6067d57e6360c706bf38c747468a3df39a66d99c2c0eb1d",
        "7e7cb04cf65ac8336717b8b0048e63c7fa0caaac902d9a26367c7936b3657406"),
    "chain_n6_heavy": ("f2af6a85dcbd22bfffc17d7ac19df388440607666a634de620e3c0ef9e920dd4",
        "c3d2b5fab4a3dcb8de3356ef92d8efe143f88262b43de1a853756e3054256cb3"),
    "line_n3": ("9c7262a09eb1e7ab218b5c60da1a7524750983ffea03441bd9973d34815e1f33",
        "895daa1ce86032e1fee77d8203d3632f97e14a895e1f81ab64168e1288243865"),
    "line_n4": ("f8e9ff341a23b89577299e8faa2a342060c950b6632e28fabd0d6e2d2f7fc2f6",
        "6fef7df9b4dd1a3468458a29a3f2cfc803db407df1810a4b092222dfd71bed19"),
    "line_n6": ("0bf230c42aff9a4c898c0a362f900297f5df83c35096b53e8286cf4c739f0d57",
        "ce42742009f04f84b915378bb0377d6884a073c726d33abe3ab98059977922aa"),
    "line_n6_fine": ("1ad95b6ce3199d97c8663e64451f714d7b42f3fc1fb1d49af0ebacf4a3bf3600",
        "df44ee32d4ac16a28dabeb20345657c0b68fbc653d0837da8fca6ea8a9cb3684"),
    "random_balanced_n5": ("f42a3986c6601c047fcc5a5268ebe9746420e0e83bc0b7fd5f61100d60f93f07",
        "54962fb8b77a902f19aa5deb83f02fce05585d0ae59e18242e78c9e2d433dbff"),
    "random_periodic_n4": ("ae359fc77f15f0ed79090b5e6f015d7938a5e19d0b917121d50ebaef979e1aa5",
        "59940d984481f037b1e07e9f3a8da907c7278b9fe75285385d01deaaf444913e"),
    "random_static_n5": ("c847e7c1c8f4611e32ef7e44542bfa1238cc0a4aedce9330ecd747c263853f7d",
        "628d947e4b8e19fb631eb9c39bd55151662eeaee3d3d1f7a9dfb42b0b582f686"),
    "line3-d1.0": ("9c7262a09eb1e7ab218b5c60da1a7524750983ffea03441bd9973d34815e1f33",
        "895daa1ce86032e1fee77d8203d3632f97e14a895e1f81ab64168e1288243865"),
    "line3-d0.1": ("f53b8f9aed3c2e5523dc779bb3df1f1d0639978fc33b4441c325739e242640fe",
        "dea956eb8db28b78b8477c7aec98bbc2caba3abe7561f2e33b6a6b9557865586"),
    "line3-d0.01": ("d30abf828cd1d56717cc64337cb53ccf2215b5e047d79f4bd8bbc9022d9495d6",
        "b47212a975687fcb6f8a0ec2cddad9855f43dca947ecd9ea333d116f20ff2ff0"),
    "line4-d1.0": ("f8e9ff341a23b89577299e8faa2a342060c950b6632e28fabd0d6e2d2f7fc2f6",
        "6fef7df9b4dd1a3468458a29a3f2cfc803db407df1810a4b092222dfd71bed19"),
    "line4-d0.1": ("b5fbba040947fecd6b2736fb4c8a47e5a426223d95aee6619de1511bfb3f07ee",
        "33fc05f6886e540c427a60bac290863d9312b3d6d6c0bad4faf77e3271abc82b"),
    "line4-d0.01": ("5f17bde62136fe8ee9da3538315977fd303fcd9038d29733194ddbae35a0b96c",
        "1055a90ae71b5bf7fc4b0d4a31b51bb08f6836b9c37d116fe8a466b4fb62d670"),
    "line5-d1.0": ("e277eb3ae773ef7ace439ac6c18ee5788f024e41372a9b35984181b428b3c0a2",
        "58c67e2719f6a96b3482295bdb077e543f96f8e8c99b23080f030ea1c427f4cf"),
    "line5-d0.1": ("da9f414ca6bd2d3d666cc394cfe0624985fedabf5b72adb7d1c05ee167e15291",
        "de247a2ddb504e6ec6a6bd691d67d07b3fb03930a51426263779317b558330ae"),
    "line5-d0.01": ("0bdbb27716eb37165bc4076f761c134a22a6812e9dd13b46e860a9af2a61439a",
        "c07c844ab6c5f167ef6141e33ed61b4757d3f5c3df247fa4032a18ab6df024c4"),
    "line6-d1.0": ("0bf230c42aff9a4c898c0a362f900297f5df83c35096b53e8286cf4c739f0d57",
        "ce42742009f04f84b915378bb0377d6884a073c726d33abe3ab98059977922aa"),
    "line6-d0.1": ("cfc0a5b997b85416e57ab2387c9688bc595679fd34879b28068ae1cca1d8e1c3",
        "fa2121883b6ede23939e8ff4de551d99c9ae687b6e3b8005eea6d19fbe52736d"),
    "line6-d0.01": ("2e8ca893a539e33a4cbbabf7f96fd410196dfd34d1a935339dd9a06d0685f128",
        "3522a524d8d8116a4f29a5d5d95a4fd437a3731ba07984ed559ee57a79c2a8f3"),
    "line7-d1.0": ("d13e36b63e81498091f797d6c2e6eb61c32a7de844ceb771f307eae9a079ea8c",
        "f877c1f0512fe27946bcda146ecdcd55a6a7f00701476be31eda99ee7a0d3d56"),
    "line7-d0.1": ("125f64473d36419cf388ddd29dea8957d36f67cc671137cd8065ac2b51d43278",
        "766dd623a4831ce74be3f0a696b807344039eb4ef094829d986413d2c9d166ed"),
    "line7-d0.01": ("4fa6dd076c39944895dcb8754ac621d1ba203d44cb671aa5fe0f1b8acd803211",
        "baa88f9483b062be55247bad9dc90558cad796f7c2ff1bf58ce475335d160327"),
    "line8-d1.0": ("064748fe1deda3cd60c199e8edafbf30cfb9a7185c2ea6cd8720d21f3a80904d",
        "80a315d9fe788dd79c1da4995d58fbe70301062b5e24835a82660cb814ab7f89"),
    "line8-d0.1": ("01361821fd7dc3d292ceec0201f4616991818f3af5b0b8321f053a7265776386",
        "89a803cdca277ec6b3f8dbfbc9305daefbc1edc1652c34a0398a57dab0db30e3"),
    "line8-d0.01": ("82aacb9985cbca34f3680ca662a4b7e5ab5359897e38dd220ce7c1836ba64c51",
        "d995028e829ae003983840c3d9bb76a1b9ddb368e124116819626628cf051486"),
    "line9-d1.0": ("af8c029c0b541ea271c41a65ee41d65022a8301bdba4923544e2451d02b89d9d",
        "d48fcc9d26dedf08840c46015b788f1c443880f537b084122e31b073ca753886"),
    "line9-d0.1": ("83ddf341decb85791b2e390e18c6744462fa3512ebfd3d581d2b736345405942",
        "94a316bc8a434c4469de9dbef711810259508eb8f418eb7a0995c9d4262d043e"),
    "line9-d0.01": ("6ced4ce89bd010687903b0966593e0ab7d1d8f1c928c4c0051bb4bc79e64857c",
        "b22ca9081a6375e61f93dbbe3bfb10ec1bfa4281bc71a00bdbc984362f5da28a"),
    "line10-d1.0": ("375179c3774f4259ae9b4dbf2f16e19b766ae7e6700d56fe894e90689e4a73fa",
        "f617beb62f3669117554f06f3e114414d3578294775d1cd6e542d1ae878b3222"),
    "line10-d0.1": ("0e1f4e698e450a9a53eb8724dcc7da64d24046e89f43aff94d6966fb2d0adbfa",
        "4fa8d1cf1e5b5f279cb31e358b3b65f329623ba2c4f1206677b64f9827df7c2a"),
    "line10-d0.01": ("6e07cfed5cb3423716cbc651bf4b47ec2f581bbb49060e4ff5daa72a6f9ae04b",
        "cde666f7f543f015c9764865c441aedfdd97146ebce576e65ea0314bc826a12e"),
    "line11-d1.0": ("e0be9d05b201fe7393e97e654f47195e9266e4217e98e04008fa8f4bab807e74",
        "f4dedda10839bac91339fb5e902c837bb7b7ad826d9bc9405635cbb34498d811"),
    "line11-d0.1": ("09df943d9cd062693dcac65aba6a2b853a517f7883de7f3ba785cbff7c641236",
        "d55ff6877f33ceaee1eb727a9dde8bd2730706ca16b3d212fa2c966120114ba6"),
    "line11-d0.01": ("4286a41becf7683dccd9b4bdb44898c313f5ca453166747501170c9f4a2214b5",
        "f68a2db7b808c947c0c7317d8eaa4fed7c85cd3c407fe82bc39596ae50eeec24"),
    "line12-d1.0": ("4fb64f66a778b2a1a198c75221eed31cd41d707d4970beef05f976488071d800",
        "3152045f31c5abf8dea4547d1ff7611ba2d45737d68d5df28bcaee8a30d9619c"),
    "line12-d0.1": ("896a9abc7853004c6250933f55ce454b2abbe98c0ca01b218ab10101668923ad",
        "6f6f386d07161798285dac8777ab5c728690b8a3d0c57886c7b68b24fca2418a"),
    "line12-d0.01": ("9cfc878f1c86a47f984a74a7e9e6171d2393c19f255fe53cad98c8094127074b",
        "8b4ec42bf7d8cf7361e2ce38e1955605d79a546c173aea026ab1df41c67f1607"),
    "chain3-b1.0": ("47c2ca9f8eb7e9372ff7537b878fa40da94f48e52cd09afe8ee6a1db95362e4d",
        "d2a319976297bd0693526ad1f1887907c62913ca9cac39b41c8a32902df6729f"),
    "chain3-b3.0": ("d17b1430619821b477222c57f9898f8f9659285781733e6b9e3940a17aabf0e8",
        "f7e0f3a6e4aacd56ee208b19a7ec96a62044de05c9f0904b40182d810e003db0"),
    "chain4-b1.0": ("d75d1941bc34e4f9b6067d57e6360c706bf38c747468a3df39a66d99c2c0eb1d",
        "7e7cb04cf65ac8336717b8b0048e63c7fa0caaac902d9a26367c7936b3657406"),
    "chain4-b3.0": ("f6a69266a8d01697754f7239c9857cea5e266848f2c350c841efd1d3b3d84e59",
        "fd06a035aac0b98880de106a6ebd7591b041524faf0d8106d6dab02299fedc2e"),
    "chain5-b1.0": ("c95aa5e40adcfd0e2133247a63dd2c57caaca08caa14d24924708b3ef38eb9b6",
        "decbb19e7a7adca0b9982af2a4ed3301b08957f531d89ae65b9384bbe3ff5591"),
    "chain5-b3.0": ("576be17b8ea7c5d0f3f1caf97e1519be72dfe1827476ecfffff463d50a21415e",
        "fa9de95d78f663203c603f4eb5b080506df39927267424bab204d410c5e02436"),
    "chain6-b1.0": ("18d1b141c2fd585bbeaaea51e10ac542b2d3227db583f4c5f4d5de94fb4cddac",
        "4a21496e8fc8545c36a2dadaf561a2afa374bb5e457ee804c219c972768b32d5"),
    "chain6-b3.0": ("737053a89d92b9579005b5091ee35c5ee42abeb05fcb05c5ec1905b0c0e0b36f",
        "e92b8312db42cfcfb0ff8ec391f8faa66d77b269b42d3842a9d6f18eac489eaf"),
    "chain7-b1.0": ("b13bd88e2c8541cf0a2d7bc31135c486e804cba58bc524bf2591a42d29eb7d6a",
        "c86ed0033625fcb1da283705f1a70eedcb695a320690471a63cf3a2dfbeb1e4d"),
    "chain7-b3.0": ("912adf2c387e6c38530932ed6d1bbda1adc7da0e87929ed0ea56383901718f56",
        "3ff97f7576fb66610d8dfd550a571c0cafa72683dff247dc0c037e4621ee4451"),
    "chain8-b1.0": ("e8d9d09778233c581f24ac4158773a07550e7501fcc879ec95ebfde9a973e12c",
        "63694f32883632464bce852a75d79993e8c9bb4d8505ea0287b4bdcb8383c379"),
    "chain8-b3.0": ("76a284777ba6bfd8b61019a9f6c1da1b1cc5a5175a902cb6ddeaaf607e631385",
        "a563b9cc7121cd082dcf82afac4027e1a491a414799bc575b976eb1fbd6a3082"),
    "chain9-b1.0": ("759b5b32b6f73d7e1e125c8f3f11f856f0236d5f174f5687ed7b32de875e89de",
        "d50b394a0205e53c150b94a6cf2a0e010f8bb99e820653a72e54504abb2e3b1b"),
    "chain9-b3.0": ("565b283b62aff8e90ba0f1841ba5755e8872e1622ce9bfdf2ebed4d83d6074ef",
        "b9475eed352ffcc6bf26a0a7aeb614f0f9250516d4216d53ccfde7110acd9172"),
    "chain10-b1.0": ("76fe893aba2e8fa5495f3199d636c64bb4e18c233a370b481f6af93dfd5b7884",
        "6a5aab95143ab1979a6f8489ae5fba9e2850273bb2b9eb12db0d33e05b132ae8"),
    "chain10-b3.0": ("18151e710592bd0840acd561a271419ed2e3e26dbf05575865ae03788b1271af",
        "cd4313b7dae0380b05f21791fd80719aa055c3866cceb8808b712777a6199ded"),
    "random40-s1-sliding": ("2b9eefeb5b3d1c31fe8314f00ff3923c7f4e63df7e3631a90d7fd46c3d47d46c",
        "5bda43e0f93a6e3d0bf0b3206fea5fbcac353fd6a3d7f46ec6148dd52197f934"),
    "random40-s1-sequential-slow": ("2b9eefeb5b3d1c31fe8314f00ff3923c7f4e63df7e3631a90d7fd46c3d47d46c",
        "5bda43e0f93a6e3d0bf0b3206fea5fbcac353fd6a3d7f46ec6148dd52197f934"),
    "random40-s1-fixed-alpha": ("2b9eefeb5b3d1c31fe8314f00ff3923c7f4e63df7e3631a90d7fd46c3d47d46c",
        "5bda43e0f93a6e3d0bf0b3206fea5fbcac353fd6a3d7f46ec6148dd52197f934"),
    "random40-s2-sliding": ("0dfc4eda25972f672cd7a6771f2fe844e560e424064f78412803c727684c9a7a",
        "c9e93124d13463fc40434b47b48412250fc4c98598f873bf09c45ea8dafc6e01"),
    "random40-s2-sequential-slow": ("ec41d46de218f29df5cc19d71b250b10d52e937440a3161fa1c0722e36832931",
        "c9e93124d13463fc40434b47b48412250fc4c98598f873bf09c45ea8dafc6e01"),
    "random40-s2-fixed-alpha": ("0dfc4eda25972f672cd7a6771f2fe844e560e424064f78412803c727684c9a7a",
        "c9e93124d13463fc40434b47b48412250fc4c98598f873bf09c45ea8dafc6e01"),
    "random160-s1-sliding": ("ea5387376a69f9f3fbdb7efd49c4651e66a99961ed39d62305fa88a69366e840",
        "d3f9ca7635586cd5f8cdd10c8fd9ef58b5d53edcc716b12adb8fb8ae29945bfd"),
    "random160-s1-sequential-slow": ("2206babc261464f385550b1313af6cf6ec13fe4972b0c4d2e9653b7ff6d28652",
        "d3f9ca7635586cd5f8cdd10c8fd9ef58b5d53edcc716b12adb8fb8ae29945bfd"),
    "random160-s1-fixed-alpha": ("ea5387376a69f9f3fbdb7efd49c4651e66a99961ed39d62305fa88a69366e840",
        "d3f9ca7635586cd5f8cdd10c8fd9ef58b5d53edcc716b12adb8fb8ae29945bfd"),
    "general6-sliding": ("6df19674e3ef5410a55be262dfe36873be3d416c815d1031150ab95c6ddf09d2",
        "215b94014805c0e04e0400607a894c4dfc2ca1a6f05bbe0baf473ae31c3da3b7"),
    "general9-sequential-slow": ("b64bd70acfb30f02b4c8fd8a205bc6424919f80721b97fa6dfef53892118d346",
        "7c5bab519b3ceaf559e05281f384c21efeea31ed328da86a311bddc292f1a5ab"),
    "general12-fixed-alpha": ("824fa86248d32a85e579db35d47be05734c3d43110f34c8cf95aad41642eeb57",
        "2447fe9bba8cdb5be7dfee09da667fea15f4daa5dd6f0c88483774bfb0b04b64"),
    "periodic5-many-switches": ("568711db7d6aabc70a3caf0b9dbd6b4c94e50bf28c2876024f98a3283764f8f9",
        "622de392a8b9493322143a9309ad4b70a04cf1bb0ad1ac9c0b24f502e18734db"),
    "switching6": ("9468c46ad60fb4d66ddf778cd9d67429966f8d11ad9fd60e81e9cca57f25ae47",
        "d737a7a55c750659ea0b4d61b5bd64609ad35b025f2b96a5a388800e981c75a8"),
}


#: sha256 of the JSON and CSV at stride 0.25 of a few cases.
STRIDE_DIGESTS = {
    "line_n6": ("f2c3e8be672c3981fc483ebc52a976616b0444226fd661f0f71d07c6eab7385c",
        "5f566a3f1bb096e8344a886769f940b3bee3713559237fa54ac8435b88d24c6b"),
    "random_balanced_n5": ("26e407318375c3a7e5f6c20a381ff992a5cf425a63a2837d4a7d6c8f10bc59d9",
        "87cebbc4aab81aacb4cca8aa0cc14a35a3814d3ba2954870d39e2c735b248ec7"),
    "random_static_n5": ("381c041a02ad27ab1b4aa7d67ee124c1a9564abf1a70630743e66c7628959639",
        "24ab49e8f0e162dbbf00e11b3ecf4e420330a691a92b85c9f5ea02a0284142a4"),
    "line12-d0.01": ("0ea4b63e15846a8757f5b2d44452706dd837f7eb51367c413a55a07f818bb71c",
        "57fdbb3467fa77673b347ac584c1066b75c5d608eb543d424e4eb7ed227c56e2"),
    "chain6-b3.0": ("0137d963eeedfb89477b7502918dedc2d4e0e171b827a3f800a467097274897d",
        "aad4d03019f69c6936cded441fef7fb39bb5fa643de44d3c9185380eb73b8737"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_csv_matches_golden_digest(name):
    # The compiled kernels.  The reference list code must give the same
    # digests too: test_dynamics.test_list_fallback_matches_golden_digest.
    with kernel_path("compiled"):
        assert csv_digest(name) == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_json_and_report_match_golden_digest(name):
    with kernel_path("compiled"):
        trajectory, report, stride = json_digests(name)
    assert (trajectory, report) == JSON_DIGESTS[name]
    assert stride == STRIDE_DIGESTS.get(name)


@pytest.mark.parametrize("name", sorted(CASES))
def test_public_constructor_round_trip(name):
    # Trajectory(quantizer, events, status) stores given events in the
    # columns that simulate fills, so the exports keep their bytes.
    traj = simulate(CASES[name]())
    copy = Trajectory(traj.quantizer, list(traj.events), traj.status)
    assert sha256(copy.to_csv()) == sha256(traj.to_csv()) == DIGESTS[name]
    assert sha256(dumps(copy.to_json_obj())) == JSON_DIGESTS[name][0]


@pytest.mark.parametrize("core", ["Haswell", "Nehalem"])
def test_random160_digests_do_not_depend_on_the_blas_build(core):
    # numpy's OpenBLAS picks its kernels for the CPU when it loads, and its
    # kernels for different core types round dot products differently; the
    # variable makes a child process use the given core type's kernels.
    # The n = 160 cases run projected Gauss-Seidel, whose sums once went
    # through BLAS.
    names = [name for name in CASES if name.startswith("random160")]
    tests = Path(__file__).resolve().parent
    code = ("import json, sys; sys.path[:0] = sys.argv[1:3]; import test_golden as t; "
            "print(json.dumps({n: [t.csv_digest(n), *t.json_digests(n)[:2]] "
            "for n in sys.argv[3:]}))")
    child = subprocess.run(
        [sys.executable, "-c", code, str(tests.parent / "src"), str(tests), *names],
        env={**os.environ, "OPENBLAS_CORETYPE": core}, capture_output=True, text=True,
        check=True, timeout=300)
    assert json.loads(child.stdout) == {name: [DIGESTS[name], *JSON_DIGESTS[name]]
                                        for name in names}


def test_corpus_is_complete():
    assert set(DIGESTS) == set(CASES) == set(JSON_DIGESTS)
    assert set(STRIDE_DIGESTS) <= set(CASES)


if __name__ == "__main__":
    print("DIGESTS = {")
    for case in CASES:
        print(f'    "{case}": "{csv_digest(case)}",')
    print("}")
    by_case = {case: json_digests(case) for case in CASES}
    print("JSON_DIGESTS = {")
    for case, (trajectory, report, _) in by_case.items():
        print(f'    "{case}": ("{trajectory}",\n        "{report}"),')
    print("}")
    print("STRIDE_DIGESTS = {")
    for case in STRIDE_DIGESTS:
        trajectory, csv = by_case[case][2]
        print(f'    "{case}": ("{trajectory}",\n        "{csv}"),')
    print("}")
