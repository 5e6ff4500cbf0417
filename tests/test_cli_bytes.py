"""The bytes of the CLI's ``--deterministic`` documents, pinned.

Each command runs in-process through ``cli.main`` and its stdout is
compared by SHA-256, as are the plain-text ``--dump`` files of one beam
path.  The set covers the registry listing, every benchmark's search,
unshifted deflation, parameter continuation and beam paths with several
initial meshes, so a change to what the package computes or how a
document is written shows here.  A change that moves any of these bytes must say why
and update the hashes here.  The bytes do not depend on the BLAS thread
count (checked with ``OPENBLAS_NUM_THREADS`` 1 and 2).
"""

import hashlib

import pytest

from deflated_newton.cli import main

PINNED = {
    ("list",): "4025d70d2f1350efb9c49ba69d6d41b82a0deb8b56a5cd6c81eafd021e25c4ab",
    ("solve", "kojima-shindoh"): "92c67dd3fb9c9c6748890d72a608a8e8e505bcf85632876c2117412e1616c201",
    ("solve", "gould"): "5cb92f37e7261509c0147a5412f46315507a99df74886256212131cadf69a33c",
    ("solve", "gerard"): "d4c95bba5aba122f0a3c3c469456048190844833752478864985ad35c1d11af6",
    ("solve", "aggarwal"): "db2e1e990d261b7afcf6f0187b44adac38ce6d50fa143be65ea21b16674add44",
    ("solve", "kojima-shindoh", "--shift", "0"):
        "59f7fb85ac83a5e506eef96a037be82e796f341360bfd44ab863f863cf145090",
    ("continue", "aggarwal"): "7162b1a6cb3253628644020903ea498bafe5a0739235f1253376f67106482c26",
    ("beam",): "d37a2157a827a743ffe86e431842a840aef2ee4d2e9f11e3b668b0c88ff6fde5",
    ("beam", "--gamma-max", "1e4"): "fac5d6c4b1a1652a85d9f8136d9d7e90911c290237ea7771fdf1982f988a091a",
    ("beam", "--mesh", "8"): "9757061889784d81e5274beed4c4e175e420f1636bba76f4dd9b7d0207d86794",
    ("beam", "--mesh", "4"): "3a781f8ce361e8d70127ff6627508c5a374bc401f358a5f65fa3d4149fa16cf8",
    # one element meets the mesh rule exactly at gamma0 = 1; step 1 refines it
    ("beam", "--mesh", "1", "--gamma0", "1", "--gamma-max", "4"):
        "194bfda1e531e7669a8349146590daddcb7235e2a18560042aed193476b3a338",
}


# the --dump files of `beam --gamma-max 1e4`, one per root
DUMPS = {
    "root0.txt": "181bfcfd21af3fe507369ce87f82d7987bac51b447eccfc63721191a9460bb2a",
    "root1.txt": "6240945350a2e4a1ab11b023731884d18d19ea66a70131db36ce5633a991bbe1",
    "root2.txt": "5b3dffa088aa91f177b1676ea1ad20b7133b2af8280566f7f55e982484a7b2c5",
}


@pytest.mark.parametrize("argv", list(PINNED), ids=" ".join)
def test_deterministic_document_bytes(capsys, argv):
    assert main([*argv, "--deterministic"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED[argv]


def test_beam_dump_bytes(capsys, tmp_path):
    argv = ("beam", "--gamma-max", "1e4")
    assert main([*argv, "--deterministic", "--dump", str(tmp_path / "root")]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED[argv]
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(DUMPS)
    for name, digest in DUMPS.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest
