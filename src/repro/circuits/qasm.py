"""OpenQASM 2.0 export and a small import parser.

The exporter lets compiled circuits be inspected with external tools; the
importer is intentionally limited to the gate set this library emits (it is a
convenience for tests and examples, not a full OpenQASM front end).
"""

from __future__ import annotations

import math
import re
from typing import List, Tuple

from ..exceptions import CircuitError
from .circuit import QuantumCircuit
from .gate import Gate
from .library import GATE_ARITY, GATE_NUM_PARAMS

_HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'

# Gates that qelib1.inc does not define and must be emitted as opaque/defined gates.
_NEEDS_DEFINITION = {"ccz", "rzz"}

_CCZ_DEFINITION = (
    "gate ccz a,b,c { h c; ccx a,b,c; h c; }\n"
)
_RZZ_DEFINITION = (
    "gate rzz(theta) a,b { cx a,b; u1(theta) b; cx a,b; }\n"
)


def _format_param(value: float) -> str:
    """Render an angle compactly, using pi fractions when exact.

    Exact pi fractions (``num * pi / denom`` to the last float bit) print
    symbolically; everything else prints with :func:`repr`, whose
    shortest-round-trip guarantee makes ``parse(dump(c))`` reproduce every
    angle bit for bit — the property the QASM round-trip tests pin.
    """
    for denom in (1, 2, 3, 4, 6, 8, 16):
        for num in range(-16, 17):
            if num == 0:
                continue
            if value == num * math.pi / denom:
                sign = "-" if num < 0 else ""
                num = abs(num)
                numerator = "pi" if num == 1 else f"{num}*pi"
                return f"{sign}{numerator}/{denom}" if denom != 1 else f"{sign}{numerator}"
    if value == 0.0:
        return "0"
    return repr(value)


def to_qasm(circuit: QuantumCircuit) -> str:
    """Serialise ``circuit`` to an OpenQASM 2.0 program string."""
    lines: List[str] = [_HEADER.rstrip("\n")]
    names_used = {inst.name for inst in circuit.instructions}
    if "ccz" in names_used:
        lines.append(_CCZ_DEFINITION.rstrip("\n"))
    if "rzz" in names_used:
        lines.append(_RZZ_DEFINITION.rstrip("\n"))
    lines.append(f"qreg q[{circuit.num_qubits}];")
    num_clbits = circuit.num_clbits()
    if num_clbits:
        lines.append(f"creg c[{num_clbits}];")
    for instruction in circuit.instructions:
        name = instruction.name
        qubits = ",".join(f"q[{q}]" for q in instruction.qubits)
        if name == "measure":
            clbit = instruction.clbits[0] if instruction.clbits else instruction.qubits[0]
            lines.append(f"measure q[{instruction.qubits[0]}] -> c[{clbit}];")
        elif name == "barrier":
            lines.append(f"barrier {qubits};")
        elif name == "reset":
            lines.append(f"reset q[{instruction.qubits[0]}];")
        elif instruction.gate.params:
            params = ",".join(_format_param(p) for p in instruction.gate.params)
            lines.append(f"{name}({params}) {qubits};")
        else:
            lines.append(f"{name} {qubits};")
    return "\n".join(lines) + "\n"


_QREG_RE = re.compile(r"qreg\s+(\w+)\[(\d+)\]\s*;")
_CREG_RE = re.compile(r"creg\s+(\w+)\[(\d+)\]\s*;")
_MEASURE_RE = re.compile(r"measure\s+(\w+)\[(\d+)\]\s*->\s*(\w+)\[(\d+)\]\s*;")
_GATE_RE = re.compile(r"(\w+)\s*(\(([^)]*)\))?\s+([^;]+);")


#: Longest angle text accepted.  The exporter never writes more than a
#: ``repr`` of a float (~24 characters) or a short pi fraction.
_MAX_ANGLE_CHARS = 128


def _parse_angle(text: str) -> float:
    """Evaluate a restricted arithmetic expression over pi (e.g. ``-3*pi/4``).

    Also accepts scientific notation (``1.5e-07``), which the exporter's
    full-precision ``repr`` rendering produces for small angles.

    Input may be untrusted (``repro serve`` parses on its event loop), so
    ``**`` and any text over :data:`_MAX_ANGLE_CHARS` are rejected before
    ``eval``: ``9**9**8`` alone would compute for minutes.  A value that is
    not finite (``1e999``) is rejected too: no gate has a meaningful matrix
    for it.
    """
    if len(text) > _MAX_ANGLE_CHARS:
        raise CircuitError(
            f"angle expression longer than {_MAX_ANGLE_CHARS} characters"
        )
    allowed = set("0123456789.+-*/ piE()e")
    if not set(text) <= allowed or "**" in text:
        raise CircuitError(f"unsupported angle expression {text!r}")
    try:
        value = float(eval(text, {"__builtins__": {}}, {"pi": math.pi}))  # noqa: S307
    except Exception as exc:
        raise CircuitError(f"cannot evaluate angle expression {text!r}") from exc
    if not math.isfinite(value):
        raise CircuitError(f"angle expression {text!r} is not finite")
    return value


def _index(text: str) -> int:
    """A register size or index; ``int`` refuses over 4300 digits with ``ValueError``."""
    try:
        return int(text)
    except ValueError as exc:
        raise CircuitError(f"unusable integer {text[:32]!r} in OpenQASM input") from exc


def from_qasm(text: str) -> QuantumCircuit:
    """Parse a (restricted) OpenQASM 2.0 program emitted by :func:`to_qasm`."""
    num_qubits = 0
    for match in _QREG_RE.finditer(text):
        num_qubits += _index(match.group(2))
    if num_qubits == 0:
        raise CircuitError("OpenQASM program declares no qubits")
    circuit = QuantumCircuit(num_qubits)
    for raw_line in text.splitlines():
        line = raw_line.split("//")[0].strip()
        if (
            not line
            or line.startswith("OPENQASM")
            or line.startswith("include")
            or line.startswith("qreg")
            or line.startswith("creg")
            or line.startswith("gate ")
        ):
            continue
        measure = _MEASURE_RE.match(line)
        if measure:
            circuit.measure(_index(measure.group(2)), _index(measure.group(4)))
            continue
        match = _GATE_RE.match(line)
        if not match:
            raise CircuitError(f"cannot parse OpenQASM line: {line!r}")
        name = match.group(1)
        params_text = match.group(3)
        operands = match.group(4)
        qubits = [_index(q) for q in re.findall(r"\w+\[(\d+)\]", operands)]
        if name != "barrier" and name not in GATE_ARITY:
            raise CircuitError(f"unsupported gate {name!r} in OpenQASM input")
        params: Tuple[float, ...] = ()
        if params_text:
            params = tuple(_parse_angle(part) for part in params_text.split(","))
        expected = GATE_NUM_PARAMS.get(name, 0)
        if len(params) != expected:
            raise CircuitError(
                f"gate {name!r} takes {expected} parameter(s), got {len(params)}"
            )
        if name == "barrier":
            circuit.barrier(*qubits)
            continue
        circuit.append(Gate(name, GATE_ARITY[name], params), qubits)
    return circuit
