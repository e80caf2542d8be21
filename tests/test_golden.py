"""Golden bytes: the CSV writer and the JSON / markdown renderers.

Each case's three impedance curves go through ``write_response``; the
written files then drive a full ``check`` in file mode (so the parser is
on the path too) and the report is rendered as JSON and markdown. Every
output is pinned by its SHA-256 digest. A change that alters any of these
bytes must say why and update the digest here.
"""
import hashlib

import pytest

from margingate.cli import RunConfig, run_assessment
from margingate.fixtures import bundled_case
from margingate.freqresp import write_response
from margingate.netsynth import random_case
from margingate.report import render

ROLES = ("z_ppm_existing", "z_net_old", "z_ppm_new")

GOLDEN = {
    "compliant-A": {
        "z_ppm_existing": "ae906cdbe1fe80fd82ff689e6d3de4eef434bf31272d9c1ebdbe5cef457d37d4",
        "z_net_old": "b6881c575a452b27ad6313c2dea763fdab0fae0fac9a518dcddf51118e9285dd",
        "z_ppm_new": "260e8822a56bd3452f2027132cc3e5a8f0b25669db8372a4e39a97ca1ca491ed",
        "json": "e65d39734539131db13a0e6acf1e1c5140f2f70450e0b53719609f347b827a12",
        "markdown": "5223cb7e913d30309b061bc9b1c411bfaf542ac38e2b9966cf83da5f3ae0690d",
    },
    "tableII-like": {
        "z_ppm_existing": "ae906cdbe1fe80fd82ff689e6d3de4eef434bf31272d9c1ebdbe5cef457d37d4",
        "z_net_old": "b6881c575a452b27ad6313c2dea763fdab0fae0fac9a518dcddf51118e9285dd",
        "z_ppm_new": "7fbd36b519885d9b23a6549c6ae929930be65e126ed4e5f8fd5c5b355ee8649c",
        "json": "f9623b68abb37fd77c523ebedc11f83f70d2cb4373ebee17ff7a5c7383a1a663",
        "markdown": "af40fc06873315cafcfe5835b8b589ac645e6617afd8d7a958885b26fbf75fc8",
    },
    "seed-0": {
        "z_ppm_existing": "d0a886c78feb24474f7ca0788cd4ff87bd3ef7f78833dd309f923934b180db1c",
        "z_net_old": "39736c34ca1566c90e4d80dd100294c7e9f4abc0d76165dbe8d515d810050736",
        "z_ppm_new": "4f17dee6482d3a967630b9e6061eddeb25086963fe1eb4622256c58e5727d340",
        "json": "23f308ffe042f8354072c2279df1d245a59fc21db0eae8bb8f43db576f3b0b47",
        "markdown": "db7b53686e6bfce727e3f004540b41ad8338427f2c6c2f4091d9e7a99bd88a93",
    },
    "seed-1": {
        "z_ppm_existing": "9d2b3040aa00181280bda22cc2194694d3b1fc9f6baf192f4b124531bfcd2bcf",
        "z_net_old": "5e08c3797b0d77fb4d3dfc30cb78b151d06b33819d682e324a806e369f5cc1d9",
        "z_ppm_new": "94c9d9f0bf23cf707016567a6b5069b0fe3330b0b64a70e308f9c97e44e483e3",
        "json": "a48b2bf3750ac9cf25ebfee0ab8265abc23ce006d2c1d346283c34a6bd8ae8f3",
        "markdown": "dd5038ee834ea641fbaef7b1098203251bd16078a4a67fedf550e28ef50b37dc",
    },
    "seed-2": {
        "z_ppm_existing": "691447b9cea8810e0be508369bdf8ba567a436ea56a2dd90800e576d744c5c71",
        "z_net_old": "101ea9b1eb691b17bba0e9f59bb1fe5c9bc67b4341ce4ec5f83b7713090eacdb",
        "z_ppm_new": "19f1e912a439b131f44c8d5354f18679976f17574afe1b59546930f23de890e7",
        "json": "3f87f4a1a1187c1d92c18dfa802718ab6e588fe1a78032ca126c324b1e03df30",
        "markdown": "4c473c2cb955078d28cfbd4b8994f98759e3e4d93ffa3f06f0d149c495967d18",
    },
    "seed-3": {
        "z_ppm_existing": "72106aed8a686b8be3bb7871fd7528682b0ee919a34361c36a1bdfc5c0c6fac0",
        "z_net_old": "db17d0750e5178b34ec1e0216a92402f5c7781aee63b6131df799a1447a1866d",
        "z_ppm_new": "a214afa73ffb9213b631e332a282dcc052d8338696cf70a2bbe9f6f2395a33ae",
        "json": "eb49ec8ae90d0863b61edd7f445c2e75a89acb6fdd28659de6360fbc9861064c",
        "markdown": "0b7c8d3126a3f760544b15e59910858aa07a7714f35850ecfbb8d5061ac86513",
    },
    "seed-4": {
        "z_ppm_existing": "1f04383a91adc20be91bedfbea7f67f2659fb6fcd57b5c75dc3749977fdc2fde",
        "z_net_old": "e02898ecf9fef2e1a9b890c4b5551ab53da609858f0cf38bd5ef316f095480c0",
        "z_ppm_new": "74a1513c3e61209b9b7aea7713116b83115d7323e2c4a9b00b939ac3aad03b79",
        "json": "42c0a8f31748c26dc6e56019c50c89cad1462be19fcd1f8559b8e13fc13e15e5",
        "markdown": "0fe5e99cb6b6d908d7b602c71757d40496b3c82a91635521d5619155714c58f8",
    },
    "seed-5": {
        "z_ppm_existing": "8d5ef5d9db69d9f7eae10e6e1c69413b8b146937f9beb488d7014305b202827e",
        "z_net_old": "8cb72a12202eca3cbcda5faa775ac894cdebb8e15a85e7396fcc7bd3cbb15541",
        "z_ppm_new": "5030dcabc82f852f96114b3ac085650977e7c525e28bbcb6bac58b1cf8f71e7c",
        "json": "53b56ce3c4f688f6b5102322fbc4e847e64d2579e7dcba8ae68931ee38d45e95",
        "markdown": "24ac2b7569336fec5bef5642eda1c7eeaa5d3765a95b1f57ea9dd7d219b61c88",
    },
    "seed-6": {
        "z_ppm_existing": "ed43762917786706291a7f82a32f959a3d8cab27bfc12fe77fdef4834f0b655f",
        "z_net_old": "5b00647f84e99277b102f1267946aa0def96d3b06b8c226e75589ebd0b138428",
        "z_ppm_new": "1030f1aa4f2fbe4091ab12683132417f78685f982c366c27313451aad80e0a73",
        "json": "be110bd2917d96c2f7ec8fd8ffcdd53e901b9686425425310a95d69f6e962be9",
        "markdown": "50f26c29556073a455969313e16d33d9eae438cc4a96e2ca5361e629723d0fb1",
    },
    "seed-7": {
        "z_ppm_existing": "47966033e8b3faede987f2a9987eeda3aa05fc3d258a9b02d7eb9dad9f1aa8c4",
        "z_net_old": "5f3bc0bab490c048c49198150fc426292ea1167e19b61eb8be2a8bf16dabacf9",
        "z_ppm_new": "9efa3ee49ab3f9ea38ba75e58bba93dd6af7ff6d79342e8ab5f1b31e78e9075d",
        "json": "6c4edd703d89622a261d5b00ddd22cd79dbd93aedbd8b506ec1985371be33de6",
        "markdown": "8f2a4cb1855e405110f98be5973e0fa642b229efef98cdbd2e3d027287c3a057",
    },
    "seed-8": {
        "z_ppm_existing": "c58647e9fdca524f4f81d0f70500defb65f1d7de031610d18bbc08590d24f376",
        "z_net_old": "507ea7e243b4fd0b59e26e7889c336afa0e04454a0221117bedff4d1cadf6e74",
        "z_ppm_new": "cfb49e8dd510492400e8e038891a223d0275899897eba27abb085ef1b73583db",
        "json": "e6aa971ed0e6b83625e9c6ab8d937ed2d5f7e046289eb9c17524e09cc80aeaf9",
        "markdown": "a480b2dd3443502497fdaee62bdc03bca64b968c53f55e2f17f05af2740f392d",
    },
    "seed-9": {
        "z_ppm_existing": "66962cf2af5580038ac17be20625cb41fdba6cb843c649ed9c3b7e07fbc2ea50",
        "z_net_old": "887b7b4902cd8145756abba5e0e2db3f68aaf5ffff93032b110fbd0185e6c2a9",
        "z_ppm_new": "11f358d96e28e34a7b0c49f3431d84a1dab1469503229a97342e1cbb6cd7b141",
        "json": "ed0843cba563d63bc917340f3273d5889417ba031a660778a6652a2c1c71f298",
        "markdown": "68456d898b619b690325e6d79c3cc788117c6238fc3accc8293c4d3c105caaf4",
    },
}


def case_curves(name: str):
    if name.startswith("seed-"):
        seed = int(name[len("seed-"):])
        return random_case(seed, 1 + seed % 4, (1.0, 10000.0)).responses()
    return bundled_case(name)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", list(GOLDEN))
def test_golden_digests(name, tmp_path):
    expected = GOLDEN[name]
    got = {}
    paths = []
    for role, curve in zip(ROLES, case_curves(name)):
        data = write_response(curve)
        path = tmp_path / f"{role}.csv"
        path.write_bytes(data)
        paths.append(path)
        got[role] = sha256(data)
    report, _ = run_assessment(RunConfig(*paths))
    for fmt in ("json", "markdown"):
        got[fmt] = sha256(render(report, fmt))
    assert got == expected
