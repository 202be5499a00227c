"""Golden SHA-256s of character and volume reports, a byte-identity net for the engine.

Each hash is of a report serialized as JSON with sorted keys, under one of
the eight calibrations (in the order of `CALIBRATIONS`):

* `GOLDEN`: `character_document` at max_m = 30 for one preset, recorded with
  the per-point assembly, before torsion points were evaluated once per
  Galois orbit;
* `GOLDEN_TWO_GENERATORS`: the same for the model documents of
  `TWO_GENERATOR_MODELS`, whose components carry a second curvature
  generator e1, so the form products and the top pairing run over more
  than one monomial;
* `GOLDEN_DH`: the germ document of `dh_fourier` for one preset.

`GOLDEN_MODEL_DOCUMENTS` holds the `model_to_document` hashes of the sphere
presets under orientation +1 and -1, recorded while each of the three
presets was still written out by hand, before they were built by one
weighted-sphere function.

`GOLDEN_WRITTEN_TEXT` pins the indented text itself, as the CLI and
`dump_model` write it, for a few commands.

The last two were recorded while `FormElement` still multiplied jets into
germs inside the form algebra, before the delta form was paired only at
integration.  Any change in a report, however small, fails here.  The
hashes do not depend on the benchmark's reference hashes.
"""

import hashlib
import json

import pytest
from click.testing import CliRunner

from contact_index.catalog import dump_model, model_from_document, model_to_document
from contact_index.cli import main
from contact_index.deltas import germ_to_document
from contact_index.engine import (CalibrationConfig, assemble_character, build_preset,
                                  character_document, dh_fourier)

CALIBRATIONS = [CalibrationConfig(s, o, d) for s in (1, -1) for o in (1, -1)
                for d in ("plus", "minus")]

GOLDEN = {
    ("circle", ()): (
        "2a3c21586ca468ba0987c1793fa716f67909eddc738e59173ceb4b36686dbe27",
        "6215edb24de2629a12105a802398454492a451b4588032e6e77096d313382b66",
        "84290f31468c46802b1a46531b426e5fa278434acc83822a5ec2a12841f9f9ab",
        "7a0ae47155652f93691162b8546160ff082f424db92b86bc1eca4ab72ddf5f63",
        "9c8b5a8002a433f103aab3e27f3c8ee013c16829b0703746807358b858f26a63",
        "a7ebbfdb3c4e3e41fd21200f32a7afcd2e02525183d9d1887ee7bb566ed0a288",
        "0aacc43d86f57bdb43164468ac2c38ac110d1cda9947c218d194949eff0ab6c1",
        "1a426a549c44436172964fefecf3ba9f86beeba814bbf06b70c429f10b5a0d5a",
    ),
    ("hopf", (1,)): (
        "5c9f684f7fca0ec5124688d74ff9dc08595e516bf71b589862454b27e8270336",
        "1fa3f2c0561997108c4938bd2d2db2860a733a59fc9d0785598b5f728364aff1",
        "09086610957de5b7128600539bcfb476757148de189ac3d85a3ac2e2a75ca729",
        "bd151adf0e46e5481d80fcc81179c7c17cd7eed8a9fdcb57e52a95eec49ad91a",
        "bbc8eadfa4881c3100590540fac0dae1e40d118ea72355e4e147fd04bb768bc1",
        "59687ff1e19aa1169eda58ec2c70186bdc86e50440dcb8b3e5ed58523bcb3c67",
        "a618d284918df6f156ba16b7b430c77f1d21351d27f8f15affe4db8dd628208a",
        "ba04cdc497b7248c967236711114b6ea3f4b54b63d4d977e410a0cecd7333c25",
    ),
    ("hopf", (2,)): (
        "5c1a2fc3d4f2c3f075dcf1e722f481fde934212348f2a9f457cffeb02a36bd7f",
        "c020079b7dca395802178039df9a196a355ccd880f0d079ace5246fc96491490",
        "60e416657faca325cf2fb2ed57168a26c82ec6e0adfb78a57a59dd1d97a7d1af",
        "d52462888b43ef3dec785024a987640a78bce216b5eda05e3e5d01c142886475",
        "5f45bdf7a93fa8d84bc07c4aab57ec87e593b840cbfe77ccf7f121047cd9c487",
        "5dcb26f63f3e7118549bbe5bd0b7a52021cf7c0bafdf931c1162677d64e51e6b",
        "a130ab58889ffdd9a7192cc2990519a5dae466d74d55f3b6fcb2df20cb5b1fb0",
        "5ac3fcc29bf6ab75f2c3fe56373532037f3be12b2f02d996d54b13e3658b6ee5",
    ),
    ("hopf", (3,)): (
        "c2a04b08cce6cd3cc626b42e7cda728a33cf255d3226296cfff75291673f6285",
        "e37052a920f4929e859fb89570817a317b786d44815f5a767101fcd61d034c7f",
        "80484b72bfc87d006d30cc28d6f5e6bbfa13e450fb0e9bae7da6c2defe6acb87",
        "b4c331c7b37eb6011e318ece0d8017d2a2c0515af130e0a18c76c88f744a51d4",
        "1fa4a402af5e9247769313ab5de7d126325e079cd5795022858a05ae30c23e38",
        "af6a38121b99e04beb5a91b93fda8d04decd81cabc413866c7c9925e5617f9a3",
        "ea3c87a1d2184cb91c9514d980f69c8e1bc59663fe1b7a016985ed19e2768b2e",
        "27586b81d7f8a25aba3d1231382e606b993cb0c11bdb909f6b11e7c147c17916",
    ),
    ("weighted-s3", (2, 3)): (
        "31752d36291f1c1d5e1216859a5f87f46519b8609429f2a9d8d9efc89e94594e",
        "2d5e9c45aa18ddc9093b29de3488da0e2bf78c2be6fbfe5ed705de724aebfa83",
        "e754321b3708f5caafa1a8ae1e1f900ef795f891256b7184028e94aebb9a6664",
        "21bad73ff2510e28c6771ed3541e60efc5d8dd0cf7af0266e999ff3b808d4b69",
        "fad654f209cd6ebd2e88af93e63fab870de1226b37b726b22402f82401104aae",
        "462619ff043aab90ce8594648bb0916b93d6e165ed49fd2d8c858a7feeb0aa81",
        "52d4c0db9105cdc439edbfa121dc652460bacbde033cab7697e72d9c01f3270d",
        "57cbe361a0f24cef7f21be0f171bf624a31f91fc5ed6d88e80e1092ea8ca9086",
    ),
    ("weighted-s3", (3, 4)): (
        "2a77b5cce5190d97d7e11d0fc307dd18c4781ede9e48157943e559c2539637c1",
        "c23692584866e9dfed34e8a18556f35ade107fbafa0dd205986fdf79b33aa2d8",
        "00680f9c2cd5f536271df693e74570a4e271562a684d00deefde790ee00116f4",
        "bbe79cbd18a443e4e4705c5c6b6b1b144a8c40e38de35076ec1f1756188e2bb2",
        "dfb06fb463e9b2b6846eb40d9d0bf8ad8ed5370f963a6641d5922a85c7062af1",
        "02c04ac9c1fbe4ecffaa97eb5b3c3b0db264a3247fa294d67e95359351723c33",
        "f09b3501cb7b7103514f9703ede38c306600e44dc25db874875256365b2eecc0",
        "5643ef4f67c5894971ba71d92b5954920dffb225710fa62e284abe1aa4bd1340",
    ),
    ("weighted-s3", (4, 5)): (
        "2ca29da466cad588c3f23b6bdc34ea9eea3500841ba6933ab920e823b0e98b09",
        "b8c7997919ade994a807077858c73d20f04bf5fa123f06c06dc162d6e0dfe1f1",
        "89a81c7067cc61e13bf428f2e4c0e94f29bd996b6ef808315f8f8a38d3afd029",
        "92cd37105daa9740abb11ad0ca65d6fae6072b33c6083647ae8e789ca598d470",
        "132af193f901844245e2863f7f342cd3713eaa454ad46cd8bbe9a36b8971063a",
        "818460468c9e94c53af7a33065efa3c5c0aad448d9d10c4a47a728e726a71e1f",
        "1f3af5a21ae7e78074831729bbc0619e4c7f122a68c2dccb8f19bf366ea23022",
        "64a121c3bab95fa94d8361abb14cf856c4ec0e960a5750fe3d06a65279f3a5da",
    ),
    ("weighted-s3", (3, 10)): (
        "df29cd54ba4b3cb6fa531da53e8dc4d8eb08862c8ff904f369d7745824170a77",
        "63f1e463d084593911e68fad8f1ae2eee5474a96e5d68a743be627e298d1c389",
        "44401c1b0c5b8f764729deec136ba44d42832aa09cc15681145634af1e3a699f",
        "07db944a9054695213b74e101731fd3507dab9b49bad1a743b23ba14102d3aaf",
        "3f3384131d6f2329bd47fc7c1752de81e9eff03ef91bbee8ca7044a4e25efe87",
        "849a339608b29d52de03f734be28ef8685c2dc420dffe8c2e64a4481cebe4191",
        "f06986c20e3f1227830fe21c42ccf1684d6ffa196e2ad55764827f53b28ff2f4",
        "3abb08e9229cf90a7615dd0f918cf9db61702014332b54cf88f278a2978694fb",
    ),
    ("weighted-s3", (6, 7)): (
        "bd7a04b1de1a2658ad89d7d2ba14a6bce74e0b3c5922f246eaee0271b3d6401e",
        "f466746edb1b1dde763f8b383ee9ed0207d036b11f40f0aa90944c06f344ce61",
        "626697f6ba488794819e46950b5685332f946193254ee474ed9557864a230287",
        "031bbdea2f4c8719924837b025592c93ade3b9d51075ecd58f2638495cfb23bd",
        "f4bbe6ae641568633eaed3395a57d40b2ad8ba2f2151f13725e187c9a69fe1bf",
        "b57dd358662764852345ee70a3ed76cffd77c787110a7e8192de88c41192726e",
        "0a935ede9c70301c6901a01e28074ec71fc8ce363a234cd07ecf2a58b4ba4974",
        "a8243cb26fe4227525f38b132b782cee1ffde4e44a81f5ee5ae40d386fa03258",
    ),
    ("weighted-s3", (5, 7)): (
        "57ab73c792b851864b9ad54699582b1214bbb6028c2ef32651cfbdb51c6fa780",
        "20e171ea41419cd3e482c66f037dcd178edee9fdadc8b320196dbac8a8bbc3b8",
        "c2f08c3004f511a216d0bbe18510f962566c67a48bf224c57f3559cfe894ee49",
        "39cb5c1413e675afec5fff092de2dea4aff2db8f4ab5b68f7dbadbc480ec5b0b",
        "393b0e3830d7a3ec820ea4925785876f597e4ab704262a89df2e1eb223304bf4",
        "0a35d27e690301aef48b0fda9af76385a8a6e98852c33f741a97d01c9da1f325",
        "fe984addc87a288add3e8bc7dbc28f6ff552d7fb62772278035ed60e4cd408bb",
        "eab7c30efc63f7299ca6d3bd6544967563f2d5d9d98e46576082f1964a0c9b34",
    ),
    ("weighted-s3", (11, 13)): (
        "322ec52d6fb070003b0ccbf7b7eeaeab6fbd49066a6453cdf1423496b98069bf",
        "0c0fe23a44036ee856c9965288318f84c98d15390a2aa27e3500d526e0b2d4ce",
        "028bc54f5c89e362b2f6cb85e2ba85b671e0e4a8ffbfcd4d699b4a4b0013eb78",
        "2cdab4ecca74e4effa33ee3546c0d542a48698edde1abcdd5c3625c6d6f1684c",
        "874db1b29eb12c940e8b01c97730e4715d716e08526717face2e515a6141a6d4",
        "a573f72f5f8ec8e0c4d19f875f4a7fd7839b3baf772db3f76af3eecadc48ebe0",
        "9bc7ed3de36c3b1dd45f6b7dd899234fc859d843a5361bdb0b40abb85821abe2",
        "24245b830bd17f2991fb5cef29ee821283e45e8623d844608d395890e6c11655",
    ),
}


@pytest.mark.parametrize("kind,params", list(GOLDEN), ids=lambda v: str(v))
def test_character_report_is_byte_identical(kind, params):
    got = []
    for cal in CALIBRATIONS:
        result = assemble_character(build_preset(kind, params, cal), 30, cal)
        text = json.dumps(character_document(result), sort_keys=True)
        got.append(hashlib.sha256(text.encode()).hexdigest())
    assert tuple(got) == GOLDEN[kind, params]


def _sha(doc):
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _identity_component(mu):
    """The five-dimensional identity component, generators (dA, e1)."""
    return {
        "at": "0/1", "dim": 5,
        "tangential_roots": [{"curv": ["(1*z4^1)*pi^0", "(1)*pi^0"], "weight": 1,
                              "eig": "0/1"}] * 2
        + [{"curv": ["(1*z4^1)*pi^0", "0"], "weight": 1, "eig": "0/1"}],
        "normal_roots": [],
        "moment": {"mu": mu, "reeb_weight": 1},
        "pairing": [{"mono": [2, 0], "value": "(8)*pi^3"},
                    {"mono": [1, 1], "value": "(2)*pi^3"},
                    {"mono": [0, 2], "value": "(-1)*pi^3"}],
    }


def _turn_component(at):
    """A three-dimensional component at the point `at`, generators (dA, e1):
    one tangential root of weight 1, one normal root with eigenvalue
    e^{2 pi i at}, moment 2."""
    return {
        "at": at, "dim": 3,
        "tangential_roots": [{"curv": ["(1)*pi^0", "(1/2)*pi^0"], "weight": 1,
                              "eig": "0/1"}],
        "normal_roots": [{"curv": ["0", "(1)*pi^0"], "weight": 1, "eig": at}],
        "moment": {"mu": "2", "reeb_weight": 1},
        "pairing": [{"mono": [1, 0], "value": "(4)*pi^2"},
                    {"mono": [0, 1], "value": "(-3/2)*pi^2"}],
    }


TWO_GENERATOR_MODELS = {
    "half-turn": {
        "rank": 1, "ambient_n": 2, "model_id": "two-generators-half-turn",
        "components": [_identity_component("1"), _turn_component("1/2")],
    },
    # 1/3 and 2/3 form one Galois orbit, evaluated once
    "third-turns": {
        "rank": 1, "ambient_n": 2, "model_id": "two-generators-third-turns",
        "components": [_identity_component("3/2"), _turn_component("1/3"),
                       _turn_component("2/3")],
    },
}

GOLDEN_TWO_GENERATORS = {
    "half-turn": (
        "cb34163fad9ba86e2a23a88f475c9912053817e2036ef2008369746883e4c13a",
        "fb9ce10353079d7372800302f8b71cd601759476885e58dbaa9076c8beba45f3",
        "a24fd127cededfe5fb4e13932cde9c8a8b0acb1c61aab87992f9510f19972eb4",
        "6419683d58e69a3cf2f043abf6a74c6d04275c6affe99383a93c70fcc8c66984",
        "75ca44ec88b8d39224ffcbbddd189aacbdf7f28e28bdd8bef6de418e19d24cd4",
        "23a52be7c13589c5a22306d4d19af05cc412d989274845f822c13e4e2b3881cd",
        "20f088236dc199fe79b34299850a7a3f7c97d7f5a60982c9735dbd7efa126abb",
        "51a0c4a4075f45169f25d7af354111cd403e5e06a96fbc03bf4d52ca263b4d40",
    ),
    "third-turns": (
        "5320814ede751bfc73e959bda3f1289f0df1b1cca6c828cb7a5e6279228378a6",
        "d07d2453d7c089503896a4e1c77cc81770fb2508e0ef329deabf92a1af79e7de",
        "ead1909d5c0ea94479392a3bf046085cd02d9e25b283a9da75c4412183c5ef93",
        "a44738a7ec4b5ba27e7a6ed4931bc1771a259c5260c9585cc3b55325f259e8ad",
        "0bbddb3991e828b5bb772977f7d76eaf748d5b482515e83f3d499633f09d69c7",
        "c95655d21603f4e00f86bb206a99f8943239f6006956d59a3a25642728725449",
        "6435c21201dfdb9a1bbc4101d666774e7b5816d67b8a41fbb9a2cba5cbeb2d1d",
        "84291c51c0674cd1d39c4b20d1a6a9d8c93b715a96f1c2a82314021b6a0dbee4",
    ),
}

GOLDEN_DH = {
    ("circle", ()): (
        "006c85c54f14b2d6380cb290bdeaa17727d0ee7f19019dee6d5f6e62f3f35333",
        "006c85c54f14b2d6380cb290bdeaa17727d0ee7f19019dee6d5f6e62f3f35333",
        "b81708249db70832d6fb36d8c446b39b6c4cb69feffa209e70cddf4506a9aa0d",
        "b81708249db70832d6fb36d8c446b39b6c4cb69feffa209e70cddf4506a9aa0d",
        "006c85c54f14b2d6380cb290bdeaa17727d0ee7f19019dee6d5f6e62f3f35333",
        "006c85c54f14b2d6380cb290bdeaa17727d0ee7f19019dee6d5f6e62f3f35333",
        "b81708249db70832d6fb36d8c446b39b6c4cb69feffa209e70cddf4506a9aa0d",
        "b81708249db70832d6fb36d8c446b39b6c4cb69feffa209e70cddf4506a9aa0d",
    ),
    ("hopf", (1,)): (
        "44bb1f4508c331815fe133570ee13e8382b63b5434ecf6059785902d344329c5",
        "44bb1f4508c331815fe133570ee13e8382b63b5434ecf6059785902d344329c5",
        "13315d3b39b855ccf5a31e1dd407520c2d9f59c40c8d34ff0078a5dc6e8f8685",
        "13315d3b39b855ccf5a31e1dd407520c2d9f59c40c8d34ff0078a5dc6e8f8685",
        "44bb1f4508c331815fe133570ee13e8382b63b5434ecf6059785902d344329c5",
        "44bb1f4508c331815fe133570ee13e8382b63b5434ecf6059785902d344329c5",
        "13315d3b39b855ccf5a31e1dd407520c2d9f59c40c8d34ff0078a5dc6e8f8685",
        "13315d3b39b855ccf5a31e1dd407520c2d9f59c40c8d34ff0078a5dc6e8f8685",
    ),
    ("hopf", (2,)): (
        "4895685d38d26bed1b4b6a25dee400b669e585a248e2fcbdeacd4e2cde7596bd",
        "4895685d38d26bed1b4b6a25dee400b669e585a248e2fcbdeacd4e2cde7596bd",
        "e8523677a096dfa1a486f5af123c077d1c155f1973f0f3f756767210afbc31b5",
        "e8523677a096dfa1a486f5af123c077d1c155f1973f0f3f756767210afbc31b5",
        "4895685d38d26bed1b4b6a25dee400b669e585a248e2fcbdeacd4e2cde7596bd",
        "4895685d38d26bed1b4b6a25dee400b669e585a248e2fcbdeacd4e2cde7596bd",
        "e8523677a096dfa1a486f5af123c077d1c155f1973f0f3f756767210afbc31b5",
        "e8523677a096dfa1a486f5af123c077d1c155f1973f0f3f756767210afbc31b5",
    ),
    ("hopf", (3,)): (
        "32a42073ee36bd3fa04c79ad456c2f3bdef0abf143b78b060bb59c94da9548c3",
        "32a42073ee36bd3fa04c79ad456c2f3bdef0abf143b78b060bb59c94da9548c3",
        "2774935d7edd63a0ddee93238c10916f48799a779d9965a4bd29cddcf4a627f1",
        "2774935d7edd63a0ddee93238c10916f48799a779d9965a4bd29cddcf4a627f1",
        "32a42073ee36bd3fa04c79ad456c2f3bdef0abf143b78b060bb59c94da9548c3",
        "32a42073ee36bd3fa04c79ad456c2f3bdef0abf143b78b060bb59c94da9548c3",
        "2774935d7edd63a0ddee93238c10916f48799a779d9965a4bd29cddcf4a627f1",
        "2774935d7edd63a0ddee93238c10916f48799a779d9965a4bd29cddcf4a627f1",
    ),
}


@pytest.mark.parametrize("name", list(GOLDEN_TWO_GENERATORS))
def test_two_generator_character_report_is_byte_identical(name):
    model = model_from_document(TWO_GENERATOR_MODELS[name])
    got = tuple(_sha(character_document(assemble_character(model, 30, cal)))
                for cal in CALIBRATIONS)
    assert got == GOLDEN_TWO_GENERATORS[name]


@pytest.mark.parametrize("kind,params", list(GOLDEN_DH), ids=lambda v: str(v))
def test_volume_report_is_byte_identical(kind, params):
    got = tuple(_sha(germ_to_document(dh_fourier(build_preset(kind, params, cal), cal), 0))
                for cal in CALIBRATIONS)
    assert got == GOLDEN_DH[kind, params]


GOLDEN_MODEL_DOCUMENTS = {
    ("circle", ()): (
        "d8e6944a21e580a5268cfba3e17ec56a16d6ac1782ef827e4a9a838425a77886",
        "ea0da0f882cdc21611dce3e0321b07b63b14c05a0482dd9ad1bb98cf0fc2011e",
    ),
    ("hopf", (1,)): (
        "f3e0a90470f3a7bfc1af0384e9efbefee4860c8eca8ad3aaf25f33cf17a4f57c",
        "61426e7d2e410a13404786a8baf4e384c9388f329e82cafd50a43ceec7157831",
    ),
    ("hopf", (2,)): (
        "e2efee57ee7a602a3205f3e3c355cd553bfb05c86aa5b23445cdab00a903e6a3",
        "948f34e90cd8c9e19591490626fd3a098d66a67ae2df5743e062de32943603c2",
    ),
    ("hopf", (3,)): (
        "7e04871953f2ce854df924bc08ef871b607fab52b46f37a4165c078acd1b4b36",
        "4536f28760c182404dfc387c41d0678092fbf08fb60a8669013e6d0a6cd9bba8",
    ),
    ("hopf", (12,)): (
        "5ba764944b3cb29c4bfbe756a8efe81e07a8a6d7ee9b012a2d11fc8cc67f04ad",
        "91853843bca6de2304a5d56d7ee810b5b14a5d2730acdffe2e95bdf504ed4889",
    ),
    ("weighted-s3", (1, 2)): (
        "9c09ce1ee48f709f4e5aa81c0b5a92e781b6c7ce74a33356c02f28917426a020",
        "bec52ee1d95f596c8387648e25049619fca8d111933f72a1a24671847706d3f1",
    ),
    ("weighted-s3", (2, 3)): (
        "7e24d1d1f5a0a6c96d2c25031e87364e3a4ffc4cfd455b0db04fda345d4b87bc",
        "c8f69671bcd949ef0afa66c8e9b3d8980a798efd3997f1ddf36dfbe1137af29e",
    ),
    ("weighted-s3", (3, 4)): (
        "abe0ce47cbb6f8c51ccc83b87615c872517e26e50b0d880aaa18e6c61bd9d32c",
        "661a1a40d3f5952ee29f8d6499404354d89f14fad954c1119fd5daca92302a59",
    ),
    ("weighted-s3", (11, 13)): (
        "162c483a98ac5e70b73f5309ea547161567326e80ad3a208d5603fbecd04e974",
        "578075f676dbc577bb41b84bd1ff155616613302062a21896af4313fe315fc8f",
    ),
    ("weighted-s3", (13, 17)): (
        "c134c57d0b3e1135f9c0d5bb0f2ca73128e9c5513dbaba7066bf6b7ec5cc0c8d",
        "0264d000db84db4a6cc43fdfd6caccd9c48766eed438ef91dbb483471f8c0b89",
    ),
}


@pytest.mark.parametrize("kind,params", list(GOLDEN_MODEL_DOCUMENTS), ids=lambda v: str(v))
def test_preset_model_document_is_byte_identical(kind, params):
    got = tuple(_sha(model_to_document(build_preset(kind, params, CalibrationConfig(1, o))))
                for o in (1, -1))
    assert got == GOLDEN_MODEL_DOCUMENTS[kind, params]


# SHA-256s of the indented text each command writes, with the `generated_at`
# line removed, recorded while the CLI still wrote through the stdlib's
# `json.dumps(doc, indent=2, sort_keys=True)`.
GOLDEN_WRITTEN_TEXT = {
    "verify-all":
        "3fbc8e828dad9312f574a8e25222db961e206b9e56173bdbcbb162af21bda6fb",
    "corollary-cp2":
        "a7ac4ede37fd28606021494b4d15ce8cccf0e1a0631dd67537a16d384942060e",
    "character-model-ws3-3-4":
        "e84f38602414933f09eff1181d1b043a142fd14789cf84eaf31f92058579658e",
    "germ-ws3-5-7@2/5":
        "0370493600e4c8fd606f73eebbb0f4b820f55f3aa1a824a0f18d6660a9c67109",
    "dh-hopf-3":
        "7cfa2e12487b08c3e9ae2462a25c6fb93604629a69b3c727f684b229e3c79f36",
    "calibrate":
        "76311136e6264bc3ab5f9bf75af483c7e936c285bb6651afeba4b29bc61f30e0",
    "dump-model-hopf-2":
        "ff948da664ae72fa60e7f1eedd87e9ac14b95c3f44b46130810355e4ff703617",
}


def _written_texts(root):
    runner = CliRunner()
    env = {"CONTACT_INDEX_CALIBRATION": str(root / "calibration.json")}

    def run(*args):
        result = runner.invoke(main, list(args), env=env)
        assert result.exit_code == 0, result.output
        return result.stdout

    def written(*args):
        out = root / "out.json"
        run(*args, "--out", str(out))
        return out.read_text()

    run("calibrate")
    texts = {"calibrate": (root / "calibration.json").read_text()}
    dump_model(build_preset("weighted-s3", (3, 4)), root / "ws3-3-4.json")
    dump_model(build_preset("hopf", (2,)), root / "hopf-2.json")
    texts["dump-model-hopf-2"] = (root / "hopf-2.json").read_text()
    texts["verify-all"] = written("verify", "--all")
    texts["corollary-cp2"] = written("corollary", "--preset", "prequantum-cpn", "--n", "2")
    texts["character-model-ws3-3-4"] = run("character", "--model", str(root / "ws3-3-4.json"),
                                           "--max-m", "36")
    texts["germ-ws3-5-7@2/5"] = run("germ", "--preset", "weighted-s3", "--weights", "5,7",
                                    "--at", "2/5")
    texts["dh-hopf-3"] = run("dh", "--preset", "hopf", "--n", "3")
    return texts


def test_written_report_text_is_byte_identical(tmp_path):
    got = {}
    for name, text in _written_texts(tmp_path).items():
        kept = "".join(line for line in text.splitlines(keepends=True)
                       if '"generated_at": ' not in line)
        got[name] = hashlib.sha256(kept.encode()).hexdigest()
    assert got == GOLDEN_WRITTEN_TEXT
