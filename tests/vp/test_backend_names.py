"""One backend-name decision: ``BACKEND_NAMES`` and ``DEFAULT_BACKEND``.

Every front door reads the same two values, so a name outside the list
(the retired ``fastpath`` backend here) fails at each door with that
door's typed error and the valid names spelled out.
"""

import pytest

from repro.cli import main
from repro.serve.executors import ExecutorError, execute_job
from repro.verify import parse_matrix
from repro.vp import Machine, MachineConfig
from repro.vp.backends import BACKEND_NAMES, DEFAULT_BACKEND

REMOVED = "fastpath"

EXIT = """
_start:
    li a0, 0
    li a7, 93
    ecall
"""


def test_two_backends_interp_default():
    assert BACKEND_NAMES == ("interp", "compiled")
    assert MachineConfig().backend == DEFAULT_BACKEND == "interp"


def _machine_config(capsys, tmp_path):
    with pytest.raises(ValueError) as info:
        Machine(MachineConfig(backend=REMOVED))
    return str(info.value)


def _cli_run(capsys, tmp_path):
    path = tmp_path / "prog.s"
    path.write_text(EXIT)
    with pytest.raises(SystemExit) as info:
        main(["run", str(path), "--backend", REMOVED])
    assert info.value.code == 2
    return capsys.readouterr().err


def _serve_payload(capsys, tmp_path):
    with pytest.raises(ExecutorError) as info:
        execute_job("vp_run", {"source": EXIT, "backend": REMOVED})
    return str(info.value)


def _verify_matrix(capsys, tmp_path):
    with pytest.raises(ValueError) as info:
        parse_matrix(f"{REMOVED}:compiled")
    return str(info.value)


@pytest.mark.parametrize("front_door", [_machine_config, _cli_run,
                                        _serve_payload, _verify_matrix],
                         ids=["machine", "cli", "serve", "matrix"])
def test_removed_backend_name_rejected(front_door, capsys, tmp_path):
    message = front_door(capsys, tmp_path)
    for name in BACKEND_NAMES:
        assert name in message
