"""Golden bytes: the CSV writer, the JSON / markdown / SVG renderers and
the network JSON writer.

Each case's three impedance curves go through ``write_response``; the
written files then drive a full ``check`` in file mode (so the parser is
on the path too) and the report is rendered as JSON, markdown and both
SVG charts. The element trees behind the cases go through
``network_to_json``. Every output is pinned by its SHA-256 digest. A
change that alters any of these bytes must say why and update the digest
here.

The digests hold only where numpy picks the same SIMD kernels, since the
last bits of ``np.log``, ``np.exp``, ``np.arctan2`` and complex ``np.abs``
differ between kernels. ``golden_reports/`` holds each case's
``report.json`` as well, which ``test_golden_reports_parsed`` compares
parsed, within ``FLOAT_RTOL``, so that guard holds on any host.
"""
import hashlib
import json
import math
import re
import xml.etree.ElementTree as ET
from pathlib import Path

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
        "z_net_old": "1b5fa6dc2c26ad056e9959bbe8f96098e7821fe6000786b0d92cf07912357e08",
        "z_ppm_new": "260e8822a56bd3452f2027132cc3e5a8f0b25669db8372a4e39a97ca1ca491ed",
        "json": "8be1c098c1e9aa37669e105d52a09632d66ea45eb0222a588c1eb5843ddc8fa9",
        "markdown": "3f147f101464e523c400499645ab4c51a61e581e4c95c01f1dcf0e5d7d1cba0b",
    },
    "tableII-like": {
        "z_ppm_existing": "ae906cdbe1fe80fd82ff689e6d3de4eef434bf31272d9c1ebdbe5cef457d37d4",
        "z_net_old": "1b5fa6dc2c26ad056e9959bbe8f96098e7821fe6000786b0d92cf07912357e08",
        "z_ppm_new": "75290d25d7a70d2cbe1d64aee336ec8c184a41a1e4f6a1fb889349b84b9da399",
        "json": "dad1afce9ce52b580baa1f41bd58d1e7061edfe7d7a73e6858b2261656e5c7a7",
        "markdown": "113e8cbbb0f331eb88193ec378049c365b0833b243c9f9b358e23bae07cbbc6f",
    },
    "seed-0": {
        "z_ppm_existing": "3e88683812758332b8cec3d7bf77319cf56b5d664f136d7d7cbadc52f007b2a4",
        "z_net_old": "b32134b3772f67ea49cbed93f250242268994831ea103891c09e213217bb63f4",
        "z_ppm_new": "cab37d1fac5e7d8235ba2a3141c1bd0523252d857c8b9246feb6f1f23ab5d7dc",
        "json": "9a41e7d89edaf6a8caa4d0721a39b6d974c40e130d142cbfe5fef89c47d5a0fa",
        "markdown": "37355f913c1d94107585d237fc407acf49537fe497bae5861aebd9bb7e15a3c3",
    },
    "seed-1": {
        "z_ppm_existing": "e1c8a660ef521aef72fa33070ac88a6a433ce028e0d0b73157caf44e13ee37e8",
        "z_net_old": "158c889eba342e4f594e3e404b52ad32c5733543ce1affdad99161f8f89934e9",
        "z_ppm_new": "e3dac34da985f3258ba9a98d471f6597ec7a6e62e9d6a71e5e35cc7386c84631",
        "json": "f10417684f25a3fb7cb73696d3ef06f5353c6d6c6c93cd8266bc8400380d8714",
        "markdown": "2ca07863a577eeb7782aebd3937068f9591c90ace96584ad1f7f874a10ff72d0",
    },
    "seed-2": {
        "z_ppm_existing": "b1aeeaa3cf343bd1259682e976eec12d055cf18c8ecc8b17051ea431ab98142d",
        "z_net_old": "b1eabfb3c354a6c11f58594f653263b42049559ffa55237a53dfe14625605e27",
        "z_ppm_new": "cae9f2ab78f49cded57bb04b2c62aa8a10e34b36041988aeda3af1c6906a5b47",
        "json": "6ee5ff25fff0d7cae5c2007199e692d9d90faae1a9bca9e5445924456bb3497d",
        "markdown": "a82af5bc72fc06dfb243f1df9d5ad278931ee9977b533eb132e28ea6d9f91152",
    },
    "seed-3": {
        "z_ppm_existing": "4f60d6ab3c8e923b649f8fac3b17e6f6cacce257e7abd95695357d7aa711ae19",
        "z_net_old": "a83b213b3b39d5522f7c983ddf777c4abc694d3022d3f252bf8fe48271ffd9ae",
        "z_ppm_new": "93651a3ff677b4c42a2670885fc9f72a9281865e5f4eb4d3b4195a8a3537b972",
        "json": "7c301d863a1f36d284add2c61ed5c1188e5e1ff5fc66cd7da8264945bdfbdb0d",
        "markdown": "065e32a7198ccc58bc9542dc886a200e58c82cd35e70f8c66d44a66b0377e869",
    },
    "seed-4": {
        "z_ppm_existing": "9b27e23f7db0cc7712572ce7132c951b70d22126b2ff1c641cc01a5740df7b6c",
        "z_net_old": "74803448b983b15c84531cb74d5195863ad01adbda54f56abe3423818a30d5e4",
        "z_ppm_new": "0732f9ca48b1f673c4c105d2fc3c935f5bb88d8cc0e3bca91ec1955d949b4a43",
        "json": "3f9927cc207b9d98b82a021f64b0c2e033890b617e2410c752b357c6d7c465ae",
        "markdown": "f893d9d87b9e2a326b2d1e8f38503d86b4b82d14bdc856e3b0c0d91fa5fe0fa9",
    },
    "seed-5": {
        "z_ppm_existing": "95079204910a2a82618ab8bf92491bfd74c1b7cd010fcf35d73226c91c09af36",
        "z_net_old": "710fa36b9c242667a5148830cb425e2ad7204da9e229698257ac9cc3c4ed2868",
        "z_ppm_new": "9631a8745035b323d6966e7c6f507583933a0964115fabab27716b273f03909c",
        "json": "655119adcd5e5d1390325fc1b1d9285f2c7116f976e2a0e6323136ca4cec2098",
        "markdown": "4f42c3afe134d61c02e105594ee50391da1206b148ab88521272220bb94f5e67",
    },
    "seed-6": {
        "z_ppm_existing": "cb4385d929f817767a5b8cea34e6116c2ecba7ce19973185d45e58c6329541f1",
        "z_net_old": "46b0cc9e68908f78017adf55d457528eee75fec39a6b13bae7713f575f5b1bfb",
        "z_ppm_new": "12a587ecf9473b1360a6f48675bb69528054c62dfd763cab2077d22bf8fb76ab",
        "json": "33277e744edde529b079aa9cba96f7f3b1482b2b7bab083ef2cf678bb5ec2475",
        "markdown": "0f771d4b360c80bda8258bf17fdb9880cbc846e6f06e7b2d2cf4698abb1e3f6e",
    },
    "seed-7": {
        "z_ppm_existing": "35047eebb2463d3555787fe1b6d7ef85e29b87ea8520bd81494bb3992278e066",
        "z_net_old": "13397d4d52815066fb6907f9ef4c47fdc0b408d93b4bdb1fc86e60bdaf67c773",
        "z_ppm_new": "3077ce15d974d44d9b643ecb1498eb085b4ef53ea6f2aa2cb6106347df755321",
        "json": "4e067205d6a819a4db915ac9750b29ea1eaeb64d106ba4baa1f3fccbff6b679b",
        "markdown": "2bfb3d4a6ef03f48f6c552cd45426bc963c32ac039ce33dd44dcd8624e24eb64",
    },
    "seed-8": {
        "z_ppm_existing": "0db1aacebeb20d6e7f4c2276476b616dda522bd09da55b21b424d135d26a019d",
        "z_net_old": "b67b9879409d2eca810d3dda8536378d576154b3cebad27b423d59bbfd8945dd",
        "z_ppm_new": "cf71a867273a07d314ee8ca3f71d78db4b94c11047d385b2e3de4c509c806a71",
        "json": "35a25bc335328f6606dfe26eda049be6bea188b898dfc04dedd5d5df2ef9db6a",
        "markdown": "43f455448555966c67936e36cd4e81afef5557fe4ba9b9fca39c62c89724df7e",
    },
    "seed-9": {
        "z_ppm_existing": "6cf57021f62cb49e4b49c0cd6ad5c6fa2d759282cdd05b742c1c55fec266f7b9",
        "z_net_old": "05196b2bcdeffe5cd3d943b59a9dcb34ceb43b9b91deba6b16336941d1e86a1b",
        "z_ppm_new": "0a117ed88a91d779be79da09c2534cdfbc78ed609418ae6876084c226685db2c",
        "json": "e65f55b6a705c64f7b18f7426cf16c269a59acf1926c88e31ae343aad6ea548c",
        "markdown": "cfe330aa068083f8b714965ab9f102e78c661d76def1c4c653375ca2acdecb9a",
    },
    "converter": {
        "z_ppm_existing": "9e510c7818b77a293081835d15bd78b1531d79da65804177bf9b1dafd7ce06bc",
        "z_net_old": "9013d4026768493535d00154a108ed997bfcbc71113a3c890f16287298d3c7ba",
        "z_ppm_new": "c46624549a031915f68cfb7272f835b8038d75f85a4c24b804f3c15d2d3dc013",
        "json": "4ce4b0c07830ff0385f869cace1c2d11f15bea3cb8d11665d09acb95e26c6182",
        "markdown": "e3947c5b4e6956f6fed006f9d55c434afa77b0b4cd43f7d53a0bb128f4991622",
    },
}


# the Nyquist and Bode charts of each GOLDEN case's report; "empty" is the
# Nyquist chart with no curves, "converter-cli" the Nyquist chart that the
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
        "z_ppm_existing": "1019d01949ea178e9ee2a243df9321610deee124bf4364b2dd1766fe6c4436a1",
        "z_net_old": "3c77ed7ab5399d5aa63d2202a3fa52e84d99954c220b7441c61918f2d9ae5021",
        "z_ppm_new": "640c12b104c239acf50bba75d5d31b321fa78f1f1ea5ca71e8a4236fce75ec6e",
    },
    "seed-1": {
        "z_ppm_existing": "793893b87c33c9575f9e7ded31c892c11e025805172cf5ecabeb8812444591b3",
        "z_net_old": "c140798b5edfa2dd4ba698e86c3b9a8dac6b7572bf271e184c6ede34a555bbf0",
        "z_ppm_new": "401449ee13d0bcc0edb62437871280bd95ad0539e757c5119cee53de7ec0878d",
    },
    "seed-2": {
        "z_ppm_existing": "d6dfff3c1fa795aa52dbf90dbcfedcf88f2d75d854e25a5c5ed047af9ab35f9e",
        "z_net_old": "745303350876b7dadcfbe64abfaaef3e2ffc9fc57a7ab560034ea15864696549",
        "z_ppm_new": "59e6c7cc88e17e7bae8e097fbf9ae0f24cd7807a376f2fefaeabe9ddc255b473",
    },
    "seed-3": {
        "z_ppm_existing": "d657c58ea9dd95d7f844a97f589a47aaa84a78ccb05eece73017b9d201bf3a45",
        "z_net_old": "5b784df01a633516beefd5957bd7b55b4f99e0409a131adfa0f2a4f1943e6917",
        "z_ppm_new": "59beedbe247b7e799d1cb5664c0c215ccec82163b5aefb8cd1df43a8225cc04e",
    },
    "seed-4": {
        "z_ppm_existing": "458e9672852dda83b398fd92962694adb5c19995e057f190bc59e4402b5bddd5",
        "z_net_old": "a8ae74b73993a1623e7bc7de710b5edf4116f391819fdff517ab9c3959dc3528",
        "z_ppm_new": "e9406ad53e89a8056a9b8ac87041d315a614752c7b562ed011a2e3ddf2a9d8c1",
    },
    "seed-5": {
        "z_ppm_existing": "2b53cd4ab06093838e85274c01791f9894c454fdee5cb76fb86d8e5100f23507",
        "z_net_old": "490fafc640382052c01a8df75fe1b8a9bbcdc132538787a8a72d98610bbebd61",
        "z_ppm_new": "0f1bf9699ebda981ae7a47fe953dcc33ba4e04b83987b1bc780bcd8b407d4352",
    },
    "seed-6": {
        "z_ppm_existing": "c119e2df9bbf5966ce77c3595b582d1c8383306b2e7bcbd3390bdfb620104155",
        "z_net_old": "4b0ce9e7b96ecca8f09d3245a611ce99f35d089bbaa8f54bf127ed03962cc823",
        "z_ppm_new": "46de0f69bbc2fd18f13c04b91fcc09116abdaef6c8098f68f753739382d560d8",
    },
    "seed-7": {
        "z_ppm_existing": "8db833c735d65937d23ad954b333678d4dcb140074e865a67cdbfda9f2f69bf6",
        "z_net_old": "057df484c39484c5a6bba64fed9b3fa53cf2051c98f3df76913a9b2f4bb9a898",
        "z_ppm_new": "981a0f1bde550af7a96f0e6c503a5fbb00248208601f1943b18526243488d952",
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


GOLDEN_REPORTS = Path(__file__).resolve().parent / "golden_reports"
GOLDEN_EXIT_CODES = {name: 0 if name == "compliant-A" else 1 for name in GOLDEN}
# Across numpy's AVX-512, AVX2 and x86-64-v2 kernels the golden reports'
# floats moved by at most 1.7e-14 of their scale; real numeric changes
# re-pinned earlier moved them by 4.9e-13 and 7.2e-13, which this catches.
FLOAT_RTOL = 1e-13


def assert_reports_agree(got, want, path="", scale=None):
    """Every string, integer, boolean and null equal, and every float within
    FLOAT_RTOL of its scale: its own magnitude, |L| for an ``l_value``
    component (zero up to rounding at a phase crossover), and 1 for
    ``consistency_error``, a relative error that is zero up to rounding."""
    assert type(got) is type(want), (path, got, want)
    if isinstance(want, dict):
        assert list(got) == list(want), path
        for key in want:
            key_scale = 1.0 if key == "consistency_error" else None
            assert_reports_agree(got[key], want[key], f"{path}/{key}", key_scale)
    elif isinstance(want, list):
        assert len(got) == len(want), path
        l_scale = math.hypot(*want) if path.endswith("/l_value") else None
        for i, (g, w) in enumerate(zip(got, want)):
            assert_reports_agree(g, w, f"{path}/{i}", l_scale)
    elif isinstance(want, float):
        bound = FLOAT_RTOL * (abs(want) if scale is None else scale)
        assert abs(got - want) <= bound, (path, got, want)
    else:
        assert got == want, (path, got, want)


@pytest.mark.parametrize("name", list(GOLDEN))
def test_golden_reports_parsed(name, tmp_path):
    args = ["check", "--out-dir", str(tmp_path / "out")]
    for flag, role, curve in zip(("--z-ppm", "--z-net-old", "--z-ppm-new"), ROLES,
                                 case_curves(name)):
        (tmp_path / f"{role}.csv").write_bytes(write_response(curve))
        args += [flag, str(tmp_path / f"{role}.csv")]
    assert main(args) == GOLDEN_EXIT_CODES[name]
    got = json.loads((tmp_path / "out" / "report.json").read_bytes())
    assert_reports_agree(got, json.loads((GOLDEN_REPORTS / f"{name}.json").read_bytes()))


def _phase_crossover(obj):
    return next(c for c in obj["l_new"]["crossovers"] if c["kind"] == "phase")


def _nudge_im_l(obj, step):
    cp = _phase_crossover(obj)
    cp["l_value"][1] += step * math.hypot(*cp["l_value"])


def _nudge_f(obj, step):
    _phase_crossover(obj)["f_hz"] *= 1.0 + step


@pytest.mark.parametrize("edit, agrees", [
    (lambda obj: None, True),
    (lambda obj: obj.update(consistency_error=1.5 * obj["consistency_error"]), True),
    (lambda obj: obj.update(consistency_error=1e-12), False),
    (lambda obj: _nudge_im_l(obj, 5e-14), True),
    (lambda obj: _nudge_im_l(obj, 5e-13), False),
    (lambda obj: _nudge_f(obj, 4.9e-13), False),
    (lambda obj: obj.update(overall_verdict="compliant"), False),
    (lambda obj: obj["encirclements"]["l_old"].update(winding=-2.0), False),
], ids=["same", "rounding-level consistency error", "consistency error 1e-12",
        "Im L by 5e-14 |L|", "Im L by 5e-13 |L|", "f by 4.9e-13", "verdict",
        "winding as a float"])
def test_golden_report_comparison_bounds(edit, agrees):
    # rounding-level moves agree; a move the size of an earlier re-pin does not
    want = json.loads((GOLDEN_REPORTS / "converter.json").read_bytes())
    got = json.loads(json.dumps(want))
    edit(got)
    if agrees:
        assert_reports_agree(got, want)
    else:
        with pytest.raises(AssertionError):
            assert_reports_agree(got, want)


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
    got = {"nyquist_svg": sha256(nyquist_svg_chart(MarginPolicy(), ()).encode("utf-8"))}
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
