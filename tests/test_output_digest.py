import importlib.util
import os
import pathlib
import subprocess
import sys

import zhuind

# the lines scripts/output_digest.py prints: sha256 of each byte-stable report, its exit code
# and the command; a change that moves a --json report, a verbose verification detail, an
# induction or restriction report (the two cli-cold inductions included), a character or the
# artin inversion changes one of them
PINNED_DIGESTS = [
    "0085e676b57e5dc3a174653e82b8d2d66240ca07410c72a5f0a3a2929d97e13c  exit=1  verify all --json",
    "a1b1d4bfde3f986c8fb45fcc1f2b7d1043adafc8101e1b7d5bfd8e0907e01973  exit=1  verify all --verbose",
    "4e76135938d66c57c89490bcecfebb6b6b1cb073b6a2cc2008aed242ef7bb6d6  exit=0  kernel --via heis_to_va1 --json",
    "92085b71d1c6603c10de34fd3d80164d1311bf3fb5b4ec536a0096d95324a946  exit=0  kernel --via vb_to_va1 --json",
    "53114b70fdc040f2c9375aa50b9241e0d30698a54a9de6100b3f4828c4f6f7a2  exit=0  kernel --via vir_to_va1 --json",
    "b719837a729fd80228491f4e4f411f92078aef106c83cd797148d143bec801b6  exit=0  kernel --via va1_to_va2 --json",
    "0527c23b4cc1a43518889d197ea953a7265115995a90b37da143625ccfe97113  exit=0  kernel --via vp_to_va2 --json",
    "390d4b7d7279c463af4b01c9c96128f2ca9d6b8394ac73170542079ebd04550a  exit=0  kernel --via heis_to_va2 --json",
    "cbee65391d7e719d05e343a9cd2f28e0e357bcd32ec24e66cdccc6bdf27fc77e  exit=0  dim a_va2 --json",
    "8493ea1c9100245dd6c89bb599cd86aa38ba6d062a48d8a0d8bc1d9d96d166ac  exit=0  induce --via va1_to_va2 --module va1_trivial",
    "61e389004b3ee3bd0ad05f57e41ff304d1ad7596d00b7b654ea8adc24bbad25b  exit=0  induce --via va1_to_va2 --module va1_L_half",
    "171fa88c30bc66051db4115aabbf86320eb4614ef88c7b1d263282f981f06f6c  exit=0  char --module va1_L_half --json",
    "d0b7b0e755ecf7de19f0b081402bbb65d60aeba5e9d86407d4539d42953ef9db  exit=0  char --module va2_L_lambda_alpha --json",
    "1c0c748e2a463aa0986a46b79a00cf10a341631f121b526be579c9916e61f188  exit=0  artin --target a_va1 --json",
    "f3408c5f40caf01e47b889f18142ca8f99b4a569933322db2a37855599f1a62a  exit=0  restrict --via va1_to_va2 --module va2_L_lambda_beta --json",
    "294e3aaed5bc516811b33683ebb702a978d0675d5335b1a5a56171cd8ea5e4e3  exit=0  induce --via vp_to_va2 --module vp_mod_Uhalf(1/2) --json",
    "2c631c74117a224ef2b92bada015e8e477c2508f5fecec21c1e1d123217711e5  exit=0  check catalog.zi --json",
    "17d968651543e781f663f38416037a979cb1b3767a14cb9191e75cba26e740e7  exit=0  induce --via va1_to_va2 --module va1_trivial --json",
    "069970850c45991ff7945fbe76090c8a05873f4191b0b652ec2e4aa2bf95689e  exit=0  induce --via vp_to_va2 --module vp_mod_U0(0) --json",
]


SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "output_digest.py"


def _output_digest():
    spec = importlib.util.spec_from_file_location("output_digest", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_output_digests_are_pinned():
    mod = _output_digest()
    assert [line.split("  ", 2)[2] for line in PINNED_DIGESTS] == [" ".join(argv) for argv in mod.COMMANDS]
    assert mod.digest_lines() == PINNED_DIGESTS


def test_output_digests_are_pinned_under_a_fixed_hash_seed():
    # the digests above are taken in this process under one hash seed; a cold command runs in a
    # fresh interpreter under its own, so an order drawn from str hashing would show here
    src = str(pathlib.Path(zhuind.__file__).resolve().parents[1])
    env = {
        **os.environ,
        "PYTHONHASHSEED": "0",
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    }
    proc = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == PINNED_DIGESTS
