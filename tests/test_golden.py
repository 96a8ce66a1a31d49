"""Pinned stdout of commands whose output refactors must leave unchanged.

GOLDEN pins four F_49 commands; their hashes were recorded before the
log/Zech-log arithmetic, the memoised base change and the slack-free
expansion went in.  PROJECTION pins `verify appendixA` and `project`; their
hashes were recorded before sections became coefficient rows over an
ambient Riemann-Roch basis, which random and adversarial subsystems share.
VERIFIERS pins a wedge witness of `verify mainB`, `mainBmod`, `mainC` over
F_49 and the exact path of `hypothesis-nilpotent`; their hashes were recorded
before the verifiers became loops over one fibre classification.
FLAG pins a scan through the frame change at a modified place over F_49 and
`verify appendixA` over F_49; their hashes were recorded before fibre
Taylor data became plain coefficient lists read through one nested
echelon flag per place.
LIFT pins scans over F_343, of a modified and of a split bundle; their
hashes were recorded before extension scans lifted the base-field
sections in place of computing H^0 over the extension.
ORBITS pins `verify mainA` and an all-twist scan over F_343, where most
Frobenius orbits have three places; their hashes were recorded before
scans expanded one place per orbit and ambient sections as b * (1/h).
WITNESS pins all-twist scans to k = 2 over F_7 with the witness
cross-check: on eflat 90 subfull fibres have their witness below level k,
and esharp goes through the frame change at a modified place; their hashes
were recorded before the cross-check read one witness set per place and
settled lower levels by an h^0 count.
SECTIONS pins `sections` over every twist class on the three instances,
which prints each section as a vector of functions b * (1/h); their hashes
were recorded before the Riemann-Roch layer was memoised per curve and
divisor and those products were formed only where functions are read.
WITNESS_ORBITS pins `witnesses` over every twist class and F_343; its hash
was recorded before principal functions were normalised once per divisor
and witness sets were read along Frobenius orbits.
"""

import hashlib
from pathlib import Path

import pytest

import scrollinflect.cli as cli

INSTANCES = Path(__file__).resolve().parent.parent / "instances"

GOLDEN = [
    (["osc", "--instance", "estar.json", "--k", "2", "--M", "all", "--ext", "2"],
     "34e5df9f67f984164ddfdf8d91cd10a9c6f1bc76abd21f6704b68381455fe0a4"),
    (["segre", "--instance", "esharp.json", "--method", "bruteforce", "--ext", "2"],
     "5282e068d7793f1e2f3a3b80b73ed984fc725cf9eef90e977c2f02e20dcdbe0d"),
    (["verify", "mainA", "--instance", "esharp.json", "--k", "1", "--ext", "2"],
     "286c466eabcab307dd20b904e2d031c580dc4479a05373852a1abd5df9cec337"),
    (["witnesses", "--instance", "esharp.json", "--k", "1", "--M", "all",
      "--ext", "2"],
     "ad23db3c44a13b00badf7dde205cda0b85745ea604f46ebef1d32050afadd1ad"),
]

PROJECTION = [
    (["verify", "appendixA", "--instance", "estar.json", "--m", "5"],
     "a380724d2b18492851a7c42473e19067e6ce735845bfb1474a34df63252ec35a"),
    (["verify", "appendixA", "--instance", "esharp.json", "--m", "3"],
     "8d7990ff605c8e77917ec40337fe5b697e0b0801411a231438d2a0212b3df54f"),
    (["verify", "appendixA", "--instance", "eflat.json", "--m", "3"],
     "f65e01b9cf25084e0479a7da7d381eacb2efc7db47ac6008320cdb75937a5e86"),
    (["project", "--instance", "estar.json", "--m", "5", "--seed", "3"],
     "2f8ab5a587f6984c8bf9613d2905be73bac4231d7f1def4746789b69510ac451"),
]

VERIFIERS = [
    (["verify", "mainB", "--instance", "eflat.json"],
     "734ca665187dd0c61f6120d82079c07a32096b8fb103f131d6dace9586cb10b1"),
    (["verify", "mainBmod", "--instance", "esharp.json"],
     "e091ddb2d27c04c11249afa5bc25e6cddbf416cdd1fb14e02ae17a4c796f9bab"),
    (["verify", "mainC", "--instance", "estar.json", "--ext", "2"],
     "1461fbcf4364500d752492b5cddf9f9e76c8ac211df2943a90c01c613ce165e9"),
    (["hypothesis-nilpotent", "--instance", "eflat.json"],
     "bc56fda51b1efb0a17ad9538f64afcced2386dafefe24ffa3f71cf30f6f3469d"),
]

FLAG = [
    (["scan", "--instance", "esharp.json", "--k", "2", "--M", "all", "--ext", "2"],
     "dfb4243a626eb2770284f5376147beaffc63640b807053164a96a2ffe8f6b58d"),
    (["verify", "appendixA", "--instance", "estar.json", "--m", "5", "--ext", "2"],
     "a380724d2b18492851a7c42473e19067e6ce735845bfb1474a34df63252ec35a"),
]

LIFT = [
    (["scan", "--instance", "esharp.json", "--k", "1", "--ext", "3"],
     "d06d40ca1afcac12f9de99fc75881fc43c8d5a2879630cca6fddffb25a1755d7"),
    (["osc", "--instance", "eflat.json", "--k", "1", "--ext", "3"],
     "05e10f78710914f8f0555cb166994e9db36f377a9eff9fbe65a8f49120275eb1"),
]

ORBITS = [
    (["verify", "mainA", "--instance", "estar.json", "--ext", "3"],
     "bbcf4e2ffe4b875d74a0dd2fde74d7b6d08ce761855eb1de3db713fa0d8b4383"),
    (["scan", "--instance", "estar.json", "--k", "2", "--M", "all", "--ext", "3"],
     "f9e48bac7738810ebdcb12f7ddbbe151fdc93e8cc7d360aee3a666c8de738d4f"),
]

WITNESS = [
    (["scan", "--instance", "eflat.json", "--k", "2", "--M", "all"],
     "95e1d320a8847363c4f3038b26f543d13bd9747285ff593ce54ab884e03bbb98"),
    (["scan", "--instance", "esharp.json", "--k", "2", "--M", "all"],
     "a18a2c069a26799a0b2e94a12de18810d5186ced04981ae3134a63e5fd3071dd"),
]

SECTIONS = [
    (["sections", "--instance", "estar.json", "--M", "all"],
     "c7f448fd6c8e9cf1d50b71f3e5618bb2abd74493139e6fd4625cad2b7aad099b"),
    (["sections", "--instance", "esharp.json", "--M", "all"],
     "88edbd17346e511d5843aa02c545e4b79457df613d435d399d6ae5459be2ce11"),
    (["sections", "--instance", "eflat.json", "--M", "all"],
     "2aef62ae6c5b22f963a2c32ae98b07b9e805b15012c088f8ba59001c1d4346a5"),
]

WITNESS_ORBITS = [
    (["witnesses", "--instance", "eflat.json", "--k", "1", "--M", "all", "--ext", "3"],
     "dfa893a9201b3875ea5c976dc851a440ae75b5c2d67762ac8f579dbf10234df0"),
]


def _stdout_digest(argv, capsys):
    argv = [str(INSTANCES / a) if a.endswith(".json") else a for a in argv]
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert code == 0
    return hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[g[0][0] for g in GOLDEN])
def test_extension_field_output_is_pinned(argv, digest, capsys):
    assert _stdout_digest(argv, capsys) == digest


@pytest.mark.parametrize("argv, digest", PROJECTION,
                         ids=["appendixA-estar", "appendixA-esharp",
                              "appendixA-eflat", "project-estar"])
def test_projection_output_is_pinned(argv, digest, capsys):
    assert _stdout_digest(argv, capsys) == digest


@pytest.mark.parametrize("argv, digest", VERIFIERS,
                         ids=["mainB-eflat", "mainBmod-esharp", "mainC-estar",
                              "nilpotent-eflat"])
def test_verifier_output_is_pinned(argv, digest, capsys):
    assert _stdout_digest(argv, capsys) == digest


@pytest.mark.parametrize("argv, digest", FLAG,
                         ids=["scan-esharp-ext2", "appendixA-estar-ext2"])
def test_flag_output_is_pinned(argv, digest, capsys):
    assert _stdout_digest(argv, capsys) == digest


@pytest.mark.parametrize("argv, digest", LIFT, ids=["scan-esharp-ext3", "osc-eflat-ext3"])
def test_lifted_extension_output_is_pinned(argv, digest, capsys):
    assert _stdout_digest(argv, capsys) == digest


@pytest.mark.parametrize("argv, digest", ORBITS, ids=["mainA-estar-ext3", "scan-estar-ext3"])
def test_orbit_output_is_pinned(argv, digest, capsys):
    assert _stdout_digest(argv, capsys) == digest


@pytest.mark.parametrize("argv, digest", WITNESS, ids=["scan-eflat", "scan-esharp"])
def test_witness_output_is_pinned(argv, digest, capsys):
    assert _stdout_digest(argv, capsys) == digest


@pytest.mark.parametrize("argv, digest", SECTIONS,
                         ids=["sections-estar", "sections-esharp", "sections-eflat"])
def test_sections_output_is_pinned(argv, digest, capsys):
    assert _stdout_digest(argv, capsys) == digest


@pytest.mark.parametrize("argv, digest", WITNESS_ORBITS, ids=["witnesses-eflat-ext3"])
def test_witness_orbit_output_is_pinned(argv, digest, capsys):
    assert _stdout_digest(argv, capsys) == digest
