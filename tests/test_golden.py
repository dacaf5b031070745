"""Byte identity of the command-line outputs.

The SHA-256 digests below were recorded before the policy forest was
compiled and indexed at load time, from a full walk of every document on
every request. Responses, traces, scenario output and audit trace digests
must not change with the evaluation strategy.
"""

import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

import pytest

from lexgate.cli import PSEUDONYM_KEY_ENV, default_fixtures_root, main

FIXTURES = default_fixtures_root()
REQUESTS = ("login-noon", "portfolio-ch-window", "portfolio-de-office")
# The instant each packaged request documents for itself.
EVAL_AT = {
    "login-noon": "2026-03-10T12:00:00Z",
    "portfolio-ch-window": "2026-03-10T12:45:00Z",
    "portfolio-de-office": "2026-03-10T09:10:00Z",
}
SERVE_AT = ("2026-03-10T09:10:00Z", "2026-03-10T12:45:00Z")
SERVE_KEY = "golden-key"

EXPECTED = {
    "scenario-stdout": "9924767ebb96cb0f1e45de5c6de37ff16d9449b3463407243c01313e2f3ed86d",
    "scenario-audit": "58b581bbbd0897e860232c3e3750906b566431ac39abe4bd7fdf4b65e7e39f63",
    "serve-login-noon-2026-03-10T09:10:00Z": "4c18ccdfcb93649f6a72365c8397f202b06df5b5f13b3d3b357f4831b61827ff",
    "serve-login-noon-2026-03-10T12:45:00Z": "4c18ccdfcb93649f6a72365c8397f202b06df5b5f13b3d3b357f4831b61827ff",
    "serve-portfolio-ch-window-2026-03-10T09:10:00Z": "55a938185a47f5b9be83131c68c26481446dbd954b225d6d68f276f941b60d12",
    "serve-portfolio-ch-window-2026-03-10T12:45:00Z": "50c8153a277e2a098c858e337632ccd10f164d2e3c3540d664a175c7ca01c176",
    "serve-portfolio-de-office-2026-03-10T09:10:00Z": "fdfd50e311b647c94fd3f98531f91fa17cbd7aa547b6afa8bab910019110214e",
    "serve-portfolio-de-office-2026-03-10T12:45:00Z": "cbdb0cded4f0ff6ec201f5a28b876f376521764dc5dfbba101380dc1393e0f49",
    "eval-login-noon": "9e3a53a9b0ea0101adfdff03bb7a86c08fd40a878ce24a83642b46566c96a72d",
    "eval-login-noon-ignore-tags": "14a78bb51bb8deca439f6bd2a22aae8a8a6aae131a0d05c5071ad4c8b767a973",
    "eval-portfolio-ch-window": "bf7965bb06f50c063ec1e7df22d2f94e713df9973cb2b63ee72a16ea9e887877",
    "eval-portfolio-ch-window-ignore-tags": "c009d8f3160e0591258a53ebe791eba52c7c2f8c44a987aea2ebbfe89199ddb9",
    "eval-portfolio-de-office": "e79c8114b7fdcecccdf4717e4462a67ab438002873dd8e7e95b8c64073c08694",
    "eval-portfolio-de-office-ignore-tags": "e79c8114b7fdcecccdf4717e4462a67ab438002873dd8e7e95b8c64073c08694",
}


def _run(argv: list[str], stdin: bytes = b"", key: str | None = None) -> bytes:
    """stdout of one in-process command, with the pseudonym key set or unset."""
    out = io.BytesIO()
    saved_streams = sys.stdin, sys.stdout
    saved_key = os.environ.pop(PSEUDONYM_KEY_ENV, None)
    if key is not None:
        os.environ[PSEUDONYM_KEY_ENV] = key
    sys.stdin = io.TextIOWrapper(io.BytesIO(stdin))
    sys.stdout = io.TextIOWrapper(out, encoding="utf-8", newline="\n")
    try:
        assert main(argv) == 0
        sys.stdout.flush()
        return out.getvalue()
    finally:
        sys.stdin, sys.stdout = saved_streams
        os.environ.pop(PSEUDONYM_KEY_ENV, None)
        if saved_key is not None:
            os.environ[PSEUDONYM_KEY_ENV] = saved_key


def outputs(workdir: Path) -> dict[str, bytes]:
    """Every output EXPECTED names, by name."""
    audit = workdir / "scenario-audit.log"
    found = {
        "scenario-stdout": _run(
            ["scenario", str(FIXTURES / "scenarios" / "border-trip.scenario"), "--audit", str(audit)]
        ),
        "scenario-audit": audit.read_bytes(),
    }
    for name in REQUESTS:
        request = FIXTURES / "requests" / f"{name}.req"
        for at in SERVE_AT:
            found[f"serve-{name}-{at}"] = _run(
                ["serve", "--user", "c.miller", "--secret", "miller-pass-1", "--at", at],
                stdin=request.read_bytes(),
                key=SERVE_KEY,
            )
        argv = ["eval", "--request", str(request), "--at", EVAL_AT[name], "--explain"]
        found[f"eval-{name}"] = _run(argv)
        found[f"eval-{name}-ignore-tags"] = _run(argv + ["--ignore-legislation-tags"])
    return found


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    produced = outputs(tmp_path_factory.mktemp("golden"))
    return {name: hashlib.sha256(data).hexdigest() for name, data in produced.items()}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_output_is_byte_identical(digests, name):
    assert digests[name] == EXPECTED[name]


if __name__ == "__main__":
    # Print the table of digests for the code on the import path.
    with tempfile.TemporaryDirectory() as workdir:
        for name, data in sorted(outputs(Path(workdir)).items()):
            print(f'    "{name}": "{hashlib.sha256(data).hexdigest()}",')
