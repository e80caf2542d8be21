"""Golden bytes: the CSV writer, the JSON / markdown / SVG renderers and
the network JSON writer.

Each case's three impedance curves go through ``write_response``; the
written files then drive a full ``check`` in file mode (so the parser is
on the path too) and the report is rendered as JSON, markdown and both
SVG charts. The element trees behind the cases go through
``network_to_json``. Every output is pinned by its SHA-256 digest. A
change that alters any of these bytes must say why and update the digest
here.
"""
import hashlib
import json
import math
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from margingate.cli import RunConfig, main, run_assessment
from margingate.fixtures import _base_networks, bundled_case, bundled_grid
from margingate.freqresp import log_grid, write_response
from margingate.margins import MarginPolicy
from margingate.netsynth import (
    Rational,
    Series,
    eval_network,
    network_to_json,
    random_case,
)
from margingate.report import bode_svg_chart, nyquist_svg_chart, render

from conftest import three_pole

ROLES = ("z_ppm_existing", "z_net_old", "z_ppm_new")
SVG = "{http://www.w3.org/2000/svg}"

GOLDEN = {
    "compliant-A": {
        "z_ppm_existing": "ae906cdbe1fe80fd82ff689e6d3de4eef434bf31272d9c1ebdbe5cef457d37d4",
        "z_net_old": "b6881c575a452b27ad6313c2dea763fdab0fae0fac9a518dcddf51118e9285dd",
        "z_ppm_new": "260e8822a56bd3452f2027132cc3e5a8f0b25669db8372a4e39a97ca1ca491ed",
        "json": "145d3df8dfae2f76bc6ebfd70b2375df6d5c5e28d9f762eef742d8a99fe1ecfa",
        "markdown": "8f530d3c0ff490be99811ba84c24cf3600de96cea5e32c562c49d54e58393fea",
    },
    "tableII-like": {
        "z_ppm_existing": "ae906cdbe1fe80fd82ff689e6d3de4eef434bf31272d9c1ebdbe5cef457d37d4",
        "z_net_old": "b6881c575a452b27ad6313c2dea763fdab0fae0fac9a518dcddf51118e9285dd",
        "z_ppm_new": "51c8d14837d4c704793a2bd6d8c81adc5817ae02812f19e15791e723072f4f95",
        "json": "cc7c56f36aeb3c42c4e21d8e1e0af8ed2f7ca2ab73304c934480d25597374bf3",
        "markdown": "c73a86bbed3b14bd19fc8e6c25e17f9df596264b8c233b69b75779cda5f1866c",
    },
    "seed-0": {
        "z_ppm_existing": "d0a886c78feb24474f7ca0788cd4ff87bd3ef7f78833dd309f923934b180db1c",
        "z_net_old": "39736c34ca1566c90e4d80dd100294c7e9f4abc0d76165dbe8d515d810050736",
        "z_ppm_new": "4f17dee6482d3a967630b9e6061eddeb25086963fe1eb4622256c58e5727d340",
        "json": "6417dcd0332ab860e3ae6b840183d87c56d4cdaf4e5fc279ae9bf81495ec6921",
        "markdown": "7ce20b8d85d6317c2d7f28aaead63588b1a049ede8d4ac6570c3efa4f294294b",
    },
    "seed-1": {
        "z_ppm_existing": "9d2b3040aa00181280bda22cc2194694d3b1fc9f6baf192f4b124531bfcd2bcf",
        "z_net_old": "5e08c3797b0d77fb4d3dfc30cb78b151d06b33819d682e324a806e369f5cc1d9",
        "z_ppm_new": "94c9d9f0bf23cf707016567a6b5069b0fe3330b0b64a70e308f9c97e44e483e3",
        "json": "608f0a61e25e15fa7eee6750e02f8f6966a6ac86c15a6853a2f77da11384566e",
        "markdown": "0571a2d8f167368a9e6cccdee44a83fceb5d0c7229fc13f8dfe55cbad083b775",
    },
    "seed-2": {
        "z_ppm_existing": "691447b9cea8810e0be508369bdf8ba567a436ea56a2dd90800e576d744c5c71",
        "z_net_old": "101ea9b1eb691b17bba0e9f59bb1fe5c9bc67b4341ce4ec5f83b7713090eacdb",
        "z_ppm_new": "19f1e912a439b131f44c8d5354f18679976f17574afe1b59546930f23de890e7",
        "json": "a19ad18cce34802830a8b6c50c823b1cd5c891f1110bf907f958d3d40c57cdbc",
        "markdown": "0800a0911ee354cb47a0edf2af07ce1c2abac59f1fb7cc1382f6a1236cf34cb8",
    },
    "seed-3": {
        "z_ppm_existing": "72106aed8a686b8be3bb7871fd7528682b0ee919a34361c36a1bdfc5c0c6fac0",
        "z_net_old": "db17d0750e5178b34ec1e0216a92402f5c7781aee63b6131df799a1447a1866d",
        "z_ppm_new": "a214afa73ffb9213b631e332a282dcc052d8338696cf70a2bbe9f6f2395a33ae",
        "json": "d661eaa40a5554c51bf05e05aeb23aef29019520db3d185a55b1889c44964efd",
        "markdown": "818b27ea1700bc2967813cd33a2ca064b6e842c1bd0e44b8d8f9b1dae2eab69b",
    },
    "seed-4": {
        "z_ppm_existing": "1f04383a91adc20be91bedfbea7f67f2659fb6fcd57b5c75dc3749977fdc2fde",
        "z_net_old": "e02898ecf9fef2e1a9b890c4b5551ab53da609858f0cf38bd5ef316f095480c0",
        "z_ppm_new": "74a1513c3e61209b9b7aea7713116b83115d7323e2c4a9b00b939ac3aad03b79",
        "json": "5f3ab031e423dc88627ec455706405adb1baa44ebde1afbf15a53cc50f32ab05",
        "markdown": "d914404112a3cad6c778f69df009cab763a6b01486773c0b94a4fd85853c366d",
    },
    "seed-5": {
        "z_ppm_existing": "8d5ef5d9db69d9f7eae10e6e1c69413b8b146937f9beb488d7014305b202827e",
        "z_net_old": "8cb72a12202eca3cbcda5faa775ac894cdebb8e15a85e7396fcc7bd3cbb15541",
        "z_ppm_new": "5030dcabc82f852f96114b3ac085650977e7c525e28bbcb6bac58b1cf8f71e7c",
        "json": "78577b8c5efa206bed928aa5a11f1a7cc4788cf20d1ca1841a8bbb7f6855ecaa",
        "markdown": "fa9eea0410fd5af8897a69827c017835ff6874051ad5bc2555ebb9a1fcf4f79a",
    },
    "seed-6": {
        "z_ppm_existing": "ed43762917786706291a7f82a32f959a3d8cab27bfc12fe77fdef4834f0b655f",
        "z_net_old": "5b00647f84e99277b102f1267946aa0def96d3b06b8c226e75589ebd0b138428",
        "z_ppm_new": "1030f1aa4f2fbe4091ab12683132417f78685f982c366c27313451aad80e0a73",
        "json": "2ee61d2c212ac70501eb910449da1ca8122a61cc09ee9449d2963efee61e4e44",
        "markdown": "14584eb3676a40faf364d82ce6ebbd1e7bfda3518cb2643df0c420c066d70b54",
    },
    "seed-7": {
        "z_ppm_existing": "47966033e8b3faede987f2a9987eeda3aa05fc3d258a9b02d7eb9dad9f1aa8c4",
        "z_net_old": "5f3bc0bab490c048c49198150fc426292ea1167e19b61eb8be2a8bf16dabacf9",
        "z_ppm_new": "9efa3ee49ab3f9ea38ba75e58bba93dd6af7ff6d79342e8ab5f1b31e78e9075d",
        "json": "85bc4d29221ce37861048f401e07fa0ce2c6901b5092a17c99f8ec1e8ff47f4c",
        "markdown": "de9f622010cf7b9f625429a943cbfc381b450ef84db9dbd2f1a817b917fc6d62",
    },
    "seed-8": {
        "z_ppm_existing": "c58647e9fdca524f4f81d0f70500defb65f1d7de031610d18bbc08590d24f376",
        "z_net_old": "507ea7e243b4fd0b59e26e7889c336afa0e04454a0221117bedff4d1cadf6e74",
        "z_ppm_new": "cfb49e8dd510492400e8e038891a223d0275899897eba27abb085ef1b73583db",
        "json": "fd8a4577dbd2fc7627a5572bba597d0b3b9fb2515c01c7435de7a8077c7006fb",
        "markdown": "bcdb00b7c6bd21f7d1829b7519b72868654e7e533b2c8ddcab6930079849184c",
    },
    "seed-9": {
        "z_ppm_existing": "66962cf2af5580038ac17be20625cb41fdba6cb843c649ed9c3b7e07fbc2ea50",
        "z_net_old": "887b7b4902cd8145756abba5e0e2db3f68aaf5ffff93032b110fbd0185e6c2a9",
        "z_ppm_new": "11f358d96e28e34a7b0c49f3431d84a1dab1469503229a97342e1cbb6cd7b141",
        "json": "40b96064f86b49236cce2e08314e88fbdf3e4596cd3b26b945b31d4164ecf590",
        "markdown": "4d67155a197216b0c1e071a6cd1ad57dace5b2c56368e44902d96d4cef8b8f00",
    },
    "converter": {
        "z_ppm_existing": "9e510c7818b77a293081835d15bd78b1531d79da65804177bf9b1dafd7ce06bc",
        "z_net_old": "a6a6be47021e7b101af9be71c70868a610fdf8f9d827a1490e5dc9bce128d17a",
        "z_ppm_new": "c46624549a031915f68cfb7272f835b8038d75f85a4c24b804f3c15d2d3dc013",
        "json": "2092e824aee989ee20eeb76e0339386be3ce822788a6762d9f2e734a7e324885",
        "markdown": "630a3d7316fa08c323bd54addfe1f77cac8e2951c9f41029352a569f1ecc0fec",
    },
}


# the Nyquist and Bode charts of each GOLDEN case's report; "empty" is both
# charts with no curves, "converter-cli" the Nyquist chart that the
# ``loopgain`` and ``nyquist`` subcommands draw from the converter curves
SVG_GOLDEN = {
    "compliant-A": {
        "nyquist_svg": "ad55e679bb81e53a22cc4516c0500c2c556cbfceb10390b12edc417f33f05c2a",
        "bode_svg": "75b590aaa2633193f2ae3d3df087c00d6df7f527e32c2139acacf1e60560096d",
    },
    "tableII-like": {
        "nyquist_svg": "338209c7d0e8babfaf46e6c512a353e8d91412c941b2337b7a64362a6ed8e393",
        "bode_svg": "e7d2f1563ebd5c9a3627b9dfe88c44e5f6c203b3602f250595b923929076c80c",
    },
    "seed-0": {
        "nyquist_svg": "9a86db3b8b48c37639d3e1cbce97a76e0f5edc468ca618e951a01123d2fd2131",
        "bode_svg": "72c606d0afa76844dbc4d8272efd39271dfe58aed30067c24d4a0d447b10c5e7",
    },
    "seed-1": {
        "nyquist_svg": "76d20bd28ecfff58f100da07cab0460489c9c1a7be8eb2f252c5b0c76edc7908",
        "bode_svg": "641d458ce594ccad91e8797463b61a2cfae65643d9c822be4d0647f6df4deeeb",
    },
    "seed-2": {
        "nyquist_svg": "5bee4d4f58f904a675d13496856d806c2464b2e9d7cccae06c24dfe0e6a232d6",
        "bode_svg": "02b48deb3b750860d29111268cfb50909def72affd727dbfbbb985f6f6beb054",
    },
    "seed-3": {
        "nyquist_svg": "c5dd899918cd5a22db9e55eb91e1207517ede18e7cf7c6c28c6e8b53e52b37ca",
        "bode_svg": "a1fb83941688e0dee8485ab9d67067e9f86dd7842c122cd18137ac9d35be0ffe",
    },
    "seed-4": {
        "nyquist_svg": "432136952bab5028c1243e6b752007bb5c8fc05e894ffc044e618c716c46ef41",
        "bode_svg": "6a91329e7e4a7d30ad1ab33b747153dcbb1f6b726a3b5baf10a975b990c961a6",
    },
    "seed-5": {
        "nyquist_svg": "150d079903f0f502d34bbf4ac4812a15bf899f35fcbca678046d7ad81f4f3c7f",
        "bode_svg": "a8f76da85939c03da4a2a6937bb1699711a651411dab00107dd516d4f25c6815",
    },
    "seed-6": {
        "nyquist_svg": "ec405e78784f8372bf19595f44ee4497bbeeb98b794d3de8cea67e75fcd21f89",
        "bode_svg": "33be45e170551860558012257acc5a4e7ec062f35b5a204b38cd3ecce1a718c9",
    },
    "seed-7": {
        "nyquist_svg": "5b2e7be1a47c9841914f9f90c47476cc73affd767d78e45254faabf9a3b7aecb",
        "bode_svg": "a99c8c34c1de581b9e24e6a6b6bf2b9c3710b57d07996a9046365fdc38eb6643",
    },
    "seed-8": {
        "nyquist_svg": "afa7431579f04d527317edcf62fc9589ae189df7290da75ca1e827f911cdef22",
        "bode_svg": "762e19fb1cb79f9897ae62d8683b106a5ff0125d8c51bc85b3dbbf3837a8205f",
    },
    "seed-9": {
        "nyquist_svg": "80ae8c7990df2d84848853d64fa82ea58a1b6ca721cf13ebbe93628bb08f7c5e",
        "bode_svg": "ecd3ecd3e253c60dddc2580fa885481ca33807c250eabbcdfe984f4fef0935c5",
    },
    "converter": {
        "nyquist_svg": "6558cefe82148b17aeb61249e1524b4c821c9f89ff31de5092054fa676b1ac1c",
        "bode_svg": "41e2d565f03d208304b77ea2831ea8b04592bd53dc37331a85b849bb95662d23",
    },
    "empty": {
        "nyquist_svg": "f0006ad26af497edd38c992dd0a9970468267ffe79a75be8a37ea3a886e82f03",
        "bode_svg": "83260ed3984d53259c447b4c994986c55e8c650ced62f7dbce6c2f69985f2818",
    },
    "converter-cli": {
        "nyquist_svg": "438998f07287101105a1c45f371d531536b91f8f2162f311ee722def7798b831",
    },
}


# network_to_json of the three element trees behind each case
NETWORK_GOLDEN = {
    "bundled": {
        "z_ppm_existing": "00ccca30c56354a8213530372af013440538ab64e74dd478db85410f65d6d263",
        "z_net_old": "49f25523f4a3cc1e6165e5781cd174b4c312faf087589a9203cdce596ea19e51",
        "z_ppm_new": "8dccd2dea8f10c37604ea64b1c06cc5dfcda272e1c8255a5e62d3b58857b635c",
    },
    "seed-0": {
        "z_ppm_existing": "38dcb3a5a933af35f4665003ecb28122a3c6324c6ae187c05b28e227fdeb88f2",
        "z_net_old": "3c77ed7ab5399d5aa63d2202a3fa52e84d99954c220b7441c61918f2d9ae5021",
        "z_ppm_new": "640c12b104c239acf50bba75d5d31b321fa78f1f1ea5ca71e8a4236fce75ec6e",
    },
    "seed-1": {
        "z_ppm_existing": "793893b87c33c9575f9e7ded31c892c11e025805172cf5ecabeb8812444591b3",
        "z_net_old": "c140798b5edfa2dd4ba698e86c3b9a8dac6b7572bf271e184c6ede34a555bbf0",
        "z_ppm_new": "401449ee13d0bcc0edb62437871280bd95ad0539e757c5119cee53de7ec0878d",
    },
    "seed-2": {
        "z_ppm_existing": "897b6f89de475d167fe811a60daf7956875fd9e454d2eb779e60798d02797606",
        "z_net_old": "745303350876b7dadcfbe64abfaaef3e2ffc9fc57a7ab560034ea15864696549",
        "z_ppm_new": "59e6c7cc88e17e7bae8e097fbf9ae0f24cd7807a376f2fefaeabe9ddc255b473",
    },
    "seed-3": {
        "z_ppm_existing": "80f49ad20cf1a380cfd062a8c8b7c96f2629c1afa9f28fc47fac8e2c29e4d40a",
        "z_net_old": "5b784df01a633516beefd5957bd7b55b4f99e0409a131adfa0f2a4f1943e6917",
        "z_ppm_new": "59beedbe247b7e799d1cb5664c0c215ccec82163b5aefb8cd1df43a8225cc04e",
    },
    "seed-4": {
        "z_ppm_existing": "a8f42f21559b5058317d95c69385d1b2792c6c63da64e89e0357b05718b9fba9",
        "z_net_old": "a8ae74b73993a1623e7bc7de710b5edf4116f391819fdff517ab9c3959dc3528",
        "z_ppm_new": "e9406ad53e89a8056a9b8ac87041d315a614752c7b562ed011a2e3ddf2a9d8c1",
    },
    "seed-5": {
        "z_ppm_existing": "b6787e8b2e24c9f059d0a25b812bd81aab960ad969597fddf8ad0c14ef832c47",
        "z_net_old": "490fafc640382052c01a8df75fe1b8a9bbcdc132538787a8a72d98610bbebd61",
        "z_ppm_new": "0f1bf9699ebda981ae7a47fe953dcc33ba4e04b83987b1bc780bcd8b407d4352",
    },
    "seed-6": {
        "z_ppm_existing": "2dc2c6626aec270c8315220e8b616fb90f3139c7ae33a41377c07b1757f4c4dc",
        "z_net_old": "4b0ce9e7b96ecca8f09d3245a611ce99f35d089bbaa8f54bf127ed03962cc823",
        "z_ppm_new": "46de0f69bbc2fd18f13c04b91fcc09116abdaef6c8098f68f753739382d560d8",
    },
    "seed-7": {
        "z_ppm_existing": "015c5acf27991871a99c7e712904e721b01baac5a5ce1f551340b2cf9c25b498",
        "z_net_old": "057df484c39484c5a6bba64fed9b3fa53cf2051c98f3df76913a9b2f4bb9a898",
        "z_ppm_new": "3dc685edf0967c43d21bd5f46c9ab942b2f8e2170d692434a65e63054107e981",
    },
    "seed-8": {
        "z_ppm_existing": "a24267e777e9d38ed6dbf6e3395e7bc9ab1c124a5442b3aeb7083d3c3688be77",
        "z_net_old": "9ea48d7901c4362cd12ee32deb1d3adc2e9d03cb8a50a84c3932f71fe72d86a9",
        "z_ppm_new": "ecd0472bf93b7cbe79a076232f3ad9790486c8a50e56ec70c49f6e8db54ba0f9",
    },
    "seed-9": {
        "z_ppm_existing": "e3a38a1d5ac70eeac99aad4df703d58bb5e2cabd8d3088794a241c11e9910e7e",
        "z_net_old": "3a002449c2858de12835d25e1f0350133d25cb0fa57016a12cf1e1ec0410249a",
        "z_ppm_new": "791c5a46c62bdd4d487e16e2486d11f166402114d66a2bdfd911fbd520a65ec3",
    },
    "converter": {
        "z_ppm_existing": "98eff1926498603a72e1c2a89fb1bfb8daab695ca7e8e9fb3ade903f7ba37adf",
        "z_net_old": "49f25523f4a3cc1e6165e5781cd174b4c312faf087589a9203cdce596ea19e51",
        "z_ppm_new": "8dccd2dea8f10c37604ea64b1c06cc5dfcda272e1c8255a5e62d3b58857b635c",
    },
}


def converter_networks():
    """The bundled networks with a converter-like existing plant.

    A negative-resistance band (stable poles at 200 Hz, damping 0.5) in
    series with the bundled plant puts the phase of L_new through -180 deg,
    so the report carries phase crossovers and their decompositions.
    """
    z_ppm, z_net, z_new = _base_networks()
    wc = 2.0 * math.pi * 200.0
    pole = complex(-0.5 * wc, wc * math.sqrt(0.75))
    converter = Rational(-1.5 * 9.0e-3 * wc * wc, (0j,), (pole, pole.conjugate()))
    return Series((z_ppm, converter)), z_net, z_new


def case_networks(name: str):
    if name.startswith("seed-"):
        seed = int(name[len("seed-"):])
        case = random_case(seed, 1 + seed % 4, (1.0, 10000.0))
        return case.z_ppm_existing, case.z_net_old, case.z_ppm_new
    if name == "converter":
        return converter_networks()
    return _base_networks()  # "bundled": compliant-A before any rescaling


def case_curves(name: str):
    if name.startswith("seed-"):
        seed = int(name[len("seed-"):])
        return random_case(seed, 1 + seed % 4, (1.0, 10000.0)).responses()
    if name == "converter":
        grid = bundled_grid()
        return tuple(
            eval_network(desc, grid, label=role)
            for role, desc in zip(ROLES, converter_networks())
        )
    return bundled_case(name)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_report(name: str, tmp_path):
    """Write the case's curves, run a file-mode check; digests and report."""
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
    return got, report


@pytest.mark.parametrize("name", list(GOLDEN))
def test_golden_digests(name, tmp_path):
    got, _ = check_report(name, tmp_path)
    assert got == GOLDEN[name]


def table_cell_counts(markdown: str) -> list[list[int]]:
    """Cells per row of each markdown table, split on unescaped pipes."""
    tables, rows = [], []
    for line in markdown.splitlines() + [""]:
        if line.startswith("|"):
            rows.append(len(re.split(r"(?<!\\)\|", line.strip())) - 2)
        elif rows:
            tables.append(rows)
            rows = []
    return tables


@pytest.mark.parametrize("name", list(GOLDEN))
def test_markdown_tables_have_one_cell_count(name, tmp_path):
    # GFM renders a table only when its header has as many cells as the
    # delimiter row under it
    _, report = check_report(name, tmp_path)
    tables = table_cell_counts(render(report, "markdown").decode())
    assert tables
    for counts in tables:
        assert counts[1] == counts[0] > 1 and set(counts) == {counts[0]}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_svg_digests(name, tmp_path):
    _, report = check_report(name, tmp_path)
    got = {fmt: sha256(render(report, fmt)) for fmt in ("nyquist_svg", "bode_svg")}
    assert got == SVG_GOLDEN[name]


def test_empty_svg_digests():
    got = {
        "nyquist_svg": sha256(nyquist_svg_chart(MarginPolicy(), ()).encode("utf-8")),
        "bode_svg": sha256(bode_svg_chart(()).encode("utf-8")),
    }
    assert got == SVG_GOLDEN["empty"]


def test_nyquist_subcommand_svg_digest(tmp_path):
    paths = {}
    for role, curve in zip(ROLES, case_curves("converter")):
        paths[role] = tmp_path / f"{role}.csv"
        paths[role].write_bytes(write_response(curve))
    l_path, svg_path = tmp_path / "l.csv", tmp_path / "nyquist.svg"
    assert main([
        "loopgain", "--z-net", str(paths["z_net_old"]),
        "--z-ppm", str(paths["z_ppm_existing"]), "--out", str(l_path),
    ]) == 0
    assert main(["nyquist", "--loop-gain", str(l_path), "--out", str(svg_path)]) == 0
    assert {"nyquist_svg": sha256(svg_path.read_bytes())} == SVG_GOLDEN["converter-cli"]


def test_curve_names_are_escaped_in_both_charts():
    name = 'a&b<"c">'
    curves = ((name, three_pole(2.0, 100.0, log_grid(1, 10000, 200))),)
    for chart, ids in (
        (nyquist_svg_chart(MarginPolicy(), curves), ["locus-" + name]),
        (bode_svg_chart(curves), ["bode-mag-" + name, "bode-phase-" + name]),
    ):
        root = ET.fromstring(chart)
        assert [p.get("id") for p in root.iter(f"{SVG}path") if p.get("id")] == ids
        assert name in [t.text for t in root.iter(f"{SVG}text")]


def test_converter_case_reaches_phase_crossovers(tmp_path):
    # guards the golden case above: it must keep covering the phase path
    _, report = check_report("converter", tmp_path)
    obj = json.loads(render(report, "json"))
    assert any(c["kind"] == "phase" for c in obj["l_new"]["crossovers"])
    assert any(d["kind"] == "phase" for d in obj["decompositions"])


def test_bode_phase_markers_sit_on_the_level_their_curve_crosses(tmp_path):
    # the converter's unwrapped phase crosses +180 deg, not -180 deg
    _, report = check_report("converter", tmp_path)
    root = ET.fromstring(render(report, "bode_svg"))
    texts = list(root.iter(f"{SVG}text"))
    top = next(float(t.get("y")) for t in texts if t.text == "phase (deg)")
    ticks = sorted(
        (float(t.get("y")) - 4.0, float(t.text))
        for t in texts
        if t.get("text-anchor") == "end" and float(t.get("y")) > top
    )
    (y0, v0), (y1, v1) = ticks[0], ticks[-1]
    drawn = [
        v0 + (float(c.get("cy")) - y0) * (v1 - v0) / (y1 - y0)
        for c in root.iter(f"{SVG}circle")
        if c.get("class") == "marker-phase"
    ]
    levels = []
    for (_, curve), summary in zip(report.curves, (report.l_old_summary, report.l_new_summary)):
        phase = np.degrees(np.unwrap(np.angle(curve.samples)))
        for cp in summary.crossovers:
            if cp.kind == "phase":
                p = np.interp(math.log(cp.f_hz), np.log(curve.grid.points), phase)
                levels.append(-180.0 + 360.0 * round((p + 180.0) / 360.0))
    assert 180.0 in levels
    assert drawn == pytest.approx(levels, abs=0.05)


@pytest.mark.parametrize("name", list(NETWORK_GOLDEN))
def test_network_json_digests(name):
    got = {
        role: sha256(network_to_json(desc))
        for role, desc in zip(ROLES, case_networks(name))
    }
    assert got == NETWORK_GOLDEN[name]


def test_pinned_networks_include_a_rational():
    def has_rational(obj) -> bool:
        return obj["type"] == "rational" or any(
            has_rational(c) for c in obj.get("children", ())
        )

    assert any(
        has_rational(json.loads(network_to_json(desc)))
        for name in NETWORK_GOLDEN
        if name != "converter"
        for desc in case_networks(name)
    )
