"""OpenQASM 2.0 export and a small import parser.

The exporter lets compiled circuits be inspected with external tools; the
importer is intentionally limited to the gate set this library emits (it is a
convenience for tests and examples, not a full OpenQASM front end).
"""

from __future__ import annotations

import ast
import math
import operator
import re
from typing import Dict, List, Tuple

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


def _pi_fraction_texts() -> Dict[float, str]:
    """Every exact ``num * pi / denom`` value (``|num| <= 16``) and its text.

    Filled in ``(denom, num)`` order keeping the first text per value, so a
    value that several fractions produce (``pi``, ``2*pi/2``) prints as the
    first one, exactly as a search in that order would.
    """
    texts: Dict[float, str] = {}
    for denom in (1, 2, 3, 4, 6, 8, 16):
        for num in range(-16, 17):
            if num == 0:
                continue
            sign = "-" if num < 0 else ""
            numerator = "pi" if abs(num) == 1 else f"{abs(num)}*pi"
            text = f"{sign}{numerator}/{denom}" if denom != 1 else f"{sign}{numerator}"
            texts.setdefault(num * math.pi / denom, text)
    return texts


_PI_FRACTION_TEXTS = _pi_fraction_texts()


def _format_param(value: float) -> str:
    """Render an angle compactly, using pi fractions when exact.

    Exact pi fractions (``num * pi / denom`` to the last float bit) print
    symbolically; everything else prints with :func:`repr`, whose
    shortest-round-trip guarantee makes ``parse(dump(c))`` reproduce every
    angle bit for bit — the property the QASM round-trip tests pin.  The
    fractions are one table lookup (:data:`_PI_FRACTION_TEXTS`): float
    equality and hashing agree, so the lookup finds exactly the values an
    ``==`` search over the fractions would.
    """
    text = _PI_FRACTION_TEXTS.get(value)
    if text is not None:
        return text
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


#: Most qubits a parsed program may declare, summed over its ``qreg``s.  The
#: widest suite circuit and device have 20 qubits; the cap stops untrusted
#: input from building (and barrier-ing) a register of millions of qubits.
MAX_QUBITS = 1024


#: Characters an angle expression may use.
_ANGLE_CHARS = frozenset("0123456789.+-*/ piE()e")

_BINARY_OPERATORS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.FloorDiv: operator.floordiv,
}

_UNARY_OPERATORS = {ast.UAdd: operator.pos, ast.USub: operator.neg}


def _angle_value(node: ast.AST) -> object:
    """The value of one whitelisted expression node, evaluated bottom-up."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return node.value
    if isinstance(node, ast.Name) and node.id == "pi":
        return math.pi
    if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY_OPERATORS:
        return _UNARY_OPERATORS[type(node.op)](_angle_value(node.operand))
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY_OPERATORS:
        left, right = _angle_value(node.left), _angle_value(node.right)
        return _BINARY_OPERATORS[type(node.op)](left, right)
    raise CircuitError(f"unsupported {type(node).__name__} in angle expression")


def _evaluate_angle(text: str) -> object:
    """The value of ``text`` under Python's arithmetic, without ``eval``.

    Python's own parser reads the text (after the leading spaces ``eval``
    skips), so literal rules such as ``01`` and ``1e`` are eval's by
    construction; only int and float literals, ``pi``, unary ``+ -`` and
    binary ``+ - * / //`` are evaluated, each with Python's own operator,
    so the result is the one ``eval`` gives, bit for bit (the differential
    test in ``tests/test_qasm.py`` keeps ``eval`` as the oracle).  Anything
    else raises :class:`SyntaxError`, :class:`CircuitError` or
    ``ArithmeticError``.
    """
    return _angle_value(ast.parse(text.lstrip(" "), mode="eval").body)


def _parse_angle(text: str) -> float:
    """Evaluate a restricted arithmetic expression over pi (e.g. ``-3*pi/4``).

    Also accepts scientific notation (``1.5e-07``), which the exporter's
    full-precision ``repr`` rendering produces for small angles.

    Input may be untrusted (``repro serve`` parses on its event loop), so
    ``**`` and any text over :data:`_MAX_ANGLE_CHARS` are rejected before
    evaluation: ``9**9**8`` alone would compute for minutes.  A value that is
    not finite (``1e999``) is rejected too: no gate has a meaningful matrix
    for it.
    """
    if len(text) > _MAX_ANGLE_CHARS:
        raise CircuitError(
            f"angle expression longer than {_MAX_ANGLE_CHARS} characters"
        )
    if not _ANGLE_CHARS.issuperset(text) or "**" in text:
        raise CircuitError(f"unsupported angle expression {text!r}")
    try:
        value = float(_evaluate_angle(text))
    except (SyntaxError, CircuitError, ArithmeticError) as exc:
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
    if num_qubits > MAX_QUBITS:
        raise CircuitError(f"OpenQASM program declares more than {MAX_QUBITS} qubits")
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
