"""Pinned `nt` outputs: a change to the parser, the evaluator or the
printer must leave every corpus output byte-identical.

Each digest is the sha256 of a command's exit code, standard output and
standard error, taken before the lexer read a tensor literal as one token;
the ``grad`` digests were taken before structural kernels and VJP rules
wrapped their arrays with ``NamedTensor._own``.  A ``grad`` case names its
program followed by its ``--of``/``--wrt`` options.
To print the digests of the current code, run
``PYTHONPATH=src python tests/test_pins.py``.
"""

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

import pytest

from helpers import pin_mismatch
from ntensor.cli import main
from ntensor.zoo import transformer_program

CORPUS = Path(__file__).parent / "corpus"
TRANSFORMER = dict(depth=2, seq=16, vocab=64, layer=64, heads=4, hidden=256)

PINNED = {
    # (command, program, seed): sha256 of the command's exit code and output
    ("eval", "attention.nt", 0): "890d4d28c9909c359480745dc9e9a28693ee6cf100867344a5355c3015f0c727",
    ("eval", "attention.nt", 1): "37359b9c331342ebc774c54861f15d4841bbf2a7b1f315eca579672cf6b71c09",
    ("eval", "bayes.nt", 0): "443abfcee4def08720b37dbfcf84fc1354f93e5a7411b22b2dfd2b88ba3fb7ec",
    ("eval", "bayes.nt", 1): "443abfcee4def08720b37dbfcf84fc1354f93e5a7411b22b2dfd2b88ba3fb7ec",
    ("eval", "beam.nt", 0): "39840bd4ca4d3e62e86d0b3a5cf22479d8825690197c6607ae31e398ef665de5",
    ("eval", "beam.nt", 1): "e8e6d693174b8b4129792630f31a820d1cac80b47601598ab01c2a1f4f207c80",
    ("eval", "cbow.nt", 0): "ffa1a0dd93b85040e55d239d0f37fb0c903a2940f6302aea58c19fde87ffc4b9",
    ("eval", "cbow.nt", 1): "de43d18bc336b162a57f9d4d191bb6de4956034072047bc7d248fba66f67d149",
    ("eval", "conv1d.nt", 0): "e160445d230795006469d3e23935ec7f87d093216fe58634d5dcd2ebcd5f170b",
    ("eval", "conv1d.nt", 1): "86a5b7227c25183d2abb24bfb175db09f6fa85eaa6583bc270fa438d5aca4c68",
    ("eval", "conv2d.nt", 0): "af31f53fc077cc265d34a0543b9db81aa5146a8d097e002cb6dbf89eb2e3bef3",
    ("eval", "conv2d.nt", 1): "8cb950ad3cec8cac1dc432c342eb60c147171916f9ce16f87900adef0620afcf",
    ("eval", "feedforward.nt", 0): "68d2952e98e6abdf64cef45c19b2c7548d3df032d58a50b6f180def1f348363d",
    ("eval", "feedforward.nt", 1): "e3db9d0ddc4072de6414eadb2a06842a1ddf1636025bbdcc291243277b458766",
    ("eval", "fullconn.nt", 0): "a9db3d71253241ad973ff99e3553d9374e9dfa9497514b6a671c2cf0e1f7c76a",
    ("eval", "fullconn.nt", 1): "a64316734de3694900bc5f68461b1e6461be23fce23d8112b8af9a0b1fa45258",
    ("eval", "indexing.nt", 0): "f72a421e8e09ed08db70c81aef0d4bdcbbfb87cd2681e6e95c1d791e3eae28b9",
    ("eval", "indexing.nt", 1): "f40dde9144eb104d324b7b7714fb9453f788cb807191c31975e62e7de57f9500",
    ("eval", "kmeans.nt", 0): "41256794335792dae67e851ac7827db9a9670321f9b4b9c33c0e2f9ada7de31c",
    ("eval", "kmeans.nt", 1): "41256794335792dae67e851ac7827db9a9670321f9b4b9c33c0e2f9ada7de31c",
    ("eval", "lenet.nt", 0): "66178fc7bd90054a866577e2d45af3ebb8add21bd428883545cafe30a459cad8",
    ("eval", "lenet.nt", 1): "d69640dd8f57790b085c236729d7c1de991ca37fe313c092f78d6ceac01e7c25",
    ("eval", "literals.nt", 0): "8014f7dcd5ac35142eb47e8133891d55ba7ead23159589d8a175fb1911a87d28",
    ("eval", "literals.nt", 1): "8014f7dcd5ac35142eb47e8133891d55ba7ead23159589d8a175fb1911a87d28",
    ("eval", "matrix_basics.nt", 0): "a250972fc08869f1867ae1c77f3fe72ab0ee997e90d6dc14dbb9fb5822fc5aa0",
    ("eval", "matrix_basics.nt", 1): "a250972fc08869f1867ae1c77f3fe72ab0ee997e90d6dc14dbb9fb5822fc5aa0",
    ("eval", "mvn.nt", 0): "be9642d294b19fd1542211b03981a382f36c9622274fc4f6551407021cadfecc",
    ("eval", "mvn.nt", 1): "be9642d294b19fd1542211b03981a382f36c9622274fc4f6551407021cadfecc",
    ("eval", "norms.nt", 0): "9afe8eb7273de3338fb7a8925582ee7f2be173f9bd7e234cacfa79ff0040ae71",
    ("eval", "norms.nt", 1): "7864b5b1624b4094d71dfabfa6de4f9fe3e34eaff832fbab274ca44d053ef667",
    ("eval", "rnn.nt", 0): "20c34005250b0bab608441bbee3bd8f4490b9e7a7cfc737f1ee0cdfb3571be65",
    ("eval", "rnn.nt", 1): "b8895c84520e660cc3b0c74ee8b22a164e8427baf213a03f34695f58cac5fc40",
    ("eval", "softmax_grad.nt", 0): "9b1f904333c7aeaf83c19c5e9a8f6e25574c26cf14688f71392904f86b91cb87",
    ("eval", "softmax_grad.nt", 1): "9b1f904333c7aeaf83c19c5e9a8f6e25574c26cf14688f71392904f86b91cb87",
    ("check", "inv01_add_mismatch.nt", None): "91467a045aaa83b9b632abd17f9447b6762c350b87cffc767ef7b34c9b900030",
    ("check", "inv02_literal_size.nt", None): "a1826329c0749bdd8cdef69f89c08eac504a08ca88addb1fca44f683847297e9",
    ("check", "inv03_undeclared_axis.nt", None): "59c6797c12667dfdc348435b602d22bae5f2105eb6f5a99bd7735f16f72dd36d",
    ("check", "inv04_unbound_var.nt", None): "191c6f6805cf1831e065318d4d3e4075cb4d2a271f06e80152175a23b733847a",
    ("check", "inv05_double_binding.nt", None): "27a51398d2b293c455bdf29f47b52dfb21e3529e60e0b89105e7880b8657c52f",
    ("check", "inv06_dup_axis_decl.nt", None): "60c411dfc0e827cd462da9c167e2816c7452ed8b5c0abc3bcb27a5d35901c060",
    ("check", "inv07_rename_collision.nt", None): "efe517dc7ee49299e75872fb51e540e66f0a58180d023d7ba1cdd17a19146755",
    ("check", "inv08_missing_reduce_axis.nt", None): "decfd6474ab60e4ff4b6dcb024c9db5d110854187ada4a500b5bd6d8a90ce324",
    ("check", "inv09_dot_unbound_axis.nt", None): "303f06f3a57be694bdbc9ede1dc5cb1d56b7e840cd12c44edb20426380e488ec",
    ("check", "inv10_pool_indivisible.nt", None): "230fce39dac344e03c0626a120676efb573e5e77b24f23e1b268934c9d48f2d1",
    ("check", "inv11_partial_out_of_range.nt", None): "a297740644e746639e3bca78a0a2bc31a637fee314ed67f8c0931f36f63075ff",
    ("check", "inv12_unroll_collision.nt", None): "cbade17b9e4c38955b7cbd03f1a7829e01e05efafc252f98d85d6e58af5add76",
    ("check", "inv13_maxk_too_big.nt", None): "c4e4d8bda9df303d0058d001fdd91d3da6b45acfbfd8ebe1c999021ee6ef302c",
    ("check", "inv14_det_nonsquare.nt", None): "accadd170d7edbf9b3ce60bd900082de55d91e8f84d5306a1521496347fa3688",
    ("check", "inv15_undefined_print.nt", None): "fa9a4f1a9261c901a2f6b485593e973e90ae6094ad581af8dafc7ba986e77b32",
    ("check", "inv16_softmax_missing_axis.nt", None): "2e59b77480a94cd3dbec0fde764f48c709e88d2e69c24ee2d66d282673daaf85",
    ("eval", "transformer", 0): "92215a748cf5a40d370b71cd60271da1f8af4347541900cadf1651b6ae1c7f2e",
    ("grad", "lenet.nt --of O --wrt X0", 0): "d07db37551a7f1f5d872e0e69db503f4b236213efde10fb39b87f9c13c578874",
    ("grad", "lenet.nt --of O --wrt X0", 1): "9f8f5ec073cf3c1c450fec6ac11e5bedbf29d621c36bb7ae724844ebf248301d",
    ("grad", "indexing.nt --of Sub --wrt P", 0): "fa950b8acdb6322942caf3e5a9dad2aa836a9191137b778784bfa92cc316af56",
    ("grad", "indexing.nt --of Sub --wrt P", 1): "fa950b8acdb6322942caf3e5a9dad2aa836a9191137b778784bfa92cc316af56",
    ("grad", "indexing.nt --of Embs --wrt E", 0): "c302e3f62cd572c2808a57db24e57057144b3752d674a69f761c46e41ec21459",
    ("grad", "indexing.nt --of Embs --wrt E", 1): "c302e3f62cd572c2808a57db24e57057144b3752d674a69f761c46e41ec21459",
    ("grad", "beam.nt --of NewH --wrt T", 0): "2fbc3115ca94824f319356aa20de1aef36c32638b10ed6bc2fe32d8b5a328533",
    ("grad", "beam.nt --of NewH --wrt T", 1): "9e8bab2e83926a1769c49e0fcc17274b21d24149fb9e209a2c8a60e32bfce5da",
    ("grad", "norms.nt --of GN --wrt X", 0): "fff380a7badc6f0a3e07edbb65adeea40df7546ab9bf1044f3287f4b946097cb",
    ("grad", "norms.nt --of GN --wrt X", 1): "6a0c0b4efda9a099b8fe4dd1a393722de7ae7b00d255940e728c9fa8370a80e6",
    ("grad", "matrix_basics.nt --of Row1 --wrt A", 0): "e8bbf455c67bbdb8117097f359b9586f661f306e5dd56a7ba79b8abc95c94068",
    ("grad", "matrix_basics.nt --of Row1 --wrt A", 1): "e8bbf455c67bbdb8117097f359b9586f661f306e5dd56a7ba79b8abc95c94068",
    ("grad", "conv1d.nt --of P --wrt Y", 0): "edbbbc657b50e4b96c5b5082a89a875c092667809f6c990c9773b790e26bc8de",
    ("grad", "conv1d.nt --of P --wrt Y", 1): "92c9bb9e9ad727004e1a18e7146dbd4958c7d013db9513e08dba7bdd319dd664",
    ("grad", "mvn.nt --of Density --wrt X", 0): "e78f3599ef9af8bc24d62442fa9798a72cb815bb57de29d3d1ce506334a64766",
    ("grad", "mvn.nt --of Density --wrt X", 1): "e78f3599ef9af8bc24d62442fa9798a72cb815bb57de29d3d1ce506334a64766",
    ("grad", "softmax_grad.nt --wrt X", 0): "5b069031149e503a965fd0d5a6ff884b4b689a5c87aac3479fe6d22207e96d45",
    ("grad", "softmax_grad.nt --wrt X", 1): "5b069031149e503a965fd0d5a6ff884b4b689a5c87aac3479fe6d22207e96d45",
}


GRADS = (
    "lenet.nt --of O --wrt X0",
    "indexing.nt --of Sub --wrt P",
    "indexing.nt --of Embs --wrt E",
    "beam.nt --of NewH --wrt T",
    "norms.nt --of GN --wrt X",
    "matrix_basics.nt --of Row1 --wrt A",
    "conv1d.nt --of P --wrt Y",
    "mvn.nt --of Density --wrt X",
    "softmax_grad.nt --wrt X",
)


def _cases():
    for path in sorted((CORPUS / "valid").glob("*.nt")):
        for seed in (0, 1):
            yield "eval", path.name, seed
    for path in sorted((CORPUS / "invalid").glob("*.nt")):
        yield "check", path.name, None
    yield "eval", "transformer", 0
    for name in GRADS:
        for seed in (0, 1):
            yield "grad", name, seed


def _digest(command: str, name: str, seed) -> str:
    name, *options = name.split()
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if name == "transformer":
            path = Path(tmp) / "transformer.nt"
            path.write_text(transformer_program(**TRANSFORMER))
        else:
            path = CORPUS / ("invalid" if command == "check" else "valid") / name
        argv = [command, str(path), *options] + ([] if seed is None else ["--seed", str(seed)])
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return hashlib.sha256(f"{code}\n{out.getvalue()}\0{err.getvalue()}".encode()).hexdigest()


def test_every_case_is_pinned():
    assert sorted(PINNED, key=repr) == sorted(_cases(), key=repr)


@pytest.mark.parametrize("command, name, seed", list(_cases()))
def test_output_is_byte_identical_to_the_pin(command, name, seed):
    assert _digest(command, name, seed) == PINNED[command, name, seed], pin_mismatch()


if __name__ == "__main__":
    for case in _cases():
        command, name, seed = case
        print(f'    ("{command}", "{name}", {seed}): "{_digest(*case)}",')
