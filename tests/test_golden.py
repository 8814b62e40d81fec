"""Golden digests of exact trajectories.

Each case's ``to_csv()`` output is pinned by its sha256, so any change to
the resolver, the event loop or the export that moves a single bit of a
recorded time, state, selection or coefficient fails here.  The corpus
covers every file in ``scenarios/``, the line staircases and stubborn-leader
chains of the reference families, and random graphs whose surface sets run
through both the dense path and projected Gauss-Seidel (n = 160 reaches
surface sets of 75 agents) under all three selection policies.

A deliberate change of outputs regenerates the digests with
``python tests/test_golden.py`` and needs a CHANGES.md entry that gives the
largest ulp difference and shows ``audit_trajectory`` still passes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from conftest import kernel_path
from qcl import (
    FixedAlpha,
    SequentialSlow,
    Sliding,
    example1_line,
    example2_sliding,
    random_connected,
    scenario_from_json,
    simulate,
)

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


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
    return cases


CASES = _cases()


def csv_digest(name: str) -> str:
    return hashlib.sha256(simulate(CASES[name]()).to_csv().encode()).hexdigest()


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
    "random160-s1-sliding": "3bb832b68bcb76307fd152dea6258f30e62207f0c80a05eb980bc4e43ce0b514",
    "random160-s1-sequential-slow": "6ec0708c0a7e1b72979e3b283177a37d0448c688806969e989aac7499b7235e1",
    "random160-s1-fixed-alpha": "3bb832b68bcb76307fd152dea6258f30e62207f0c80a05eb980bc4e43ce0b514",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_csv_matches_golden_digest(name):
    # The compiled kernels wherever a C compiler is found.  The list code
    # must give the same digests too:
    # test_dynamics.test_list_fallback_matches_golden_digest.
    with kernel_path("compiled"):
        assert csv_digest(name) == DIGESTS[name]


def test_corpus_is_complete():
    assert set(DIGESTS) == set(CASES)


if __name__ == "__main__":
    print("DIGESTS = {")
    for case in CASES:
        print(f'    "{case}": "{csv_digest(case)}",')
    print("}")
