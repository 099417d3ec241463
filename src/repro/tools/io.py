"""On-disk formats: workload JSON and the binary LBR profile format.

**Workload JSON** serializes a whole :class:`repro.ir.Program` with
full fidelity (probabilities included), so workloads can be generated
once and shared between tool invocations and machines.

**Profile format** (``.lbr``): a little-endian binary stream shaped
like a stripped-down perf.data --

    magic  "RLBR"  | u16 version | u32 period | u32 sample count
    per sample:  u16 record count, then (u64 src, u64 dst) pairs

Both formats round-trip exactly; property tests enforce it.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path
from typing import Any, Dict, List, Union

import numpy as np

from repro import ir
from repro.profiles import PerfData

_MAGIC = b"RLBR"
_VERSION = 1
_HEADER_BYTES = 4 + 10

PathLike = Union[str, Path]


# ----------------------------------------------------------------------
# Program JSON

def _term_to_json(term: ir.Terminator) -> Dict[str, Any]:
    if isinstance(term, ir.CondBr):
        return {"kind": "condbr", "taken": term.taken,
                "fallthrough": term.fallthrough, "prob": term.prob}
    if isinstance(term, ir.Jump):
        return {"kind": "jump", "target": term.target}
    if isinstance(term, ir.Ret):
        return {"kind": "ret"}
    if isinstance(term, ir.Switch):
        return {"kind": "switch", "targets": list(term.targets),
                "probs": list(term.probs)}
    if isinstance(term, ir.Unreachable):
        return {"kind": "unreachable"}
    raise TypeError(f"unknown terminator {term!r}")


def _term_from_json(data: Dict[str, Any]) -> ir.Terminator:
    kind = data["kind"]
    if kind == "condbr":
        return ir.CondBr(taken=data["taken"], fallthrough=data["fallthrough"],
                         prob=data["prob"])
    if kind == "jump":
        return ir.Jump(target=data["target"])
    if kind == "ret":
        return ir.Ret()
    if kind == "switch":
        return ir.Switch(targets=tuple(data["targets"]), probs=tuple(data["probs"]))
    if kind == "unreachable":
        return ir.Unreachable()
    raise ValueError(f"unknown terminator kind {kind!r}")


def _instr_to_json(instr) -> Dict[str, Any]:
    if isinstance(instr, ir.Call):
        return {
            "call": instr.callee,
            "indirect": [[t, p] for t, p in instr.indirect_targets],
            "landing_pad": instr.landing_pad,
        }
    return {"op": instr.kind.value}


def _instr_from_json(data: Dict[str, Any]):
    if "op" in data:
        return ir.Instr(ir.OpKind(data["op"]))
    return ir.Call(
        callee=data["call"],
        indirect_targets=tuple((t, p) for t, p in data.get("indirect", [])),
        landing_pad=data.get("landing_pad"),
    )


def program_to_json(program: ir.Program) -> Dict[str, Any]:
    """Serialize a program to a JSON-compatible dict."""
    return {
        "format": "repro-program",
        "version": 1,
        "name": program.name,
        "entry": program.entry_function,
        "features": sorted(program.features),
        "modules": [
            {
                "name": module.name,
                "functions": [
                    {
                        "name": fn.name,
                        "hand_written": fn.hand_written,
                        "blocks": [
                            {
                                "id": block.bb_id,
                                "landing_pad": block.is_landing_pad,
                                "instrs": [_instr_to_json(i) for i in block.instrs],
                                "term": _term_to_json(block.term),
                            }
                            for block in fn.blocks
                        ],
                    }
                    for fn in module.functions
                ],
            }
            for module in program.modules
        ],
    }


def program_from_json(data: Dict[str, Any]) -> ir.Program:
    """Rebuild a program from :func:`program_to_json` output."""
    if data.get("format") != "repro-program":
        raise ValueError("not a repro program file")
    if data.get("version") != 1:
        raise ValueError(f"unsupported program version {data.get('version')}")
    modules: List[ir.Module] = []
    for mdata in data["modules"]:
        functions = []
        for fdata in mdata["functions"]:
            blocks = [
                ir.BasicBlock(
                    bb_id=bdata["id"],
                    is_landing_pad=bdata.get("landing_pad", False),
                    instrs=[_instr_from_json(i) for i in bdata["instrs"]],
                    term=_term_from_json(bdata["term"]),
                )
                for bdata in fdata["blocks"]
            ]
            fn = ir.Function(name=fdata["name"], blocks=blocks)
            fn.hand_written = fdata.get("hand_written", False)
            functions.append(fn)
        modules.append(ir.Module(name=mdata["name"], functions=functions))
    return ir.Program(
        name=data["name"],
        modules=modules,
        entry_function=data["entry"],
        features=frozenset(data.get("features", [])),
    )


def save_program(program: ir.Program, path: PathLike) -> None:
    Path(path).write_text(json.dumps(program_to_json(program)))


def load_program(path: PathLike) -> ir.Program:
    """Read a workload; one that is not a program's JSON, or not a valid
    program (:func:`repro.ir.verify_program`), is a ``ValueError`` naming it."""
    try:
        program = program_from_json(json.loads(Path(path).read_text()))
        ir.verify_program(program)
        return program
    except (ValueError, LookupError, TypeError, AttributeError) as exc:
        raise ValueError(f"{path}: not a repro program ({exc!r})") from None


# ----------------------------------------------------------------------
# LBR profile binary format

def save_perf_data(perf: PerfData, path: PathLike) -> None:
    """Write a profile in the ``.lbr`` binary format."""
    out = [_MAGIC, struct.pack("<HII", _VERSION, perf.period, perf.num_samples)]
    for src, dst in perf.windows():
        out.append(struct.pack("<H", len(src)))
        out.append(np.stack((src, dst), axis=1).astype("<u8").tobytes())
    Path(path).write_bytes(b"".join(out))


def load_perf_data(path: PathLike) -> PerfData:
    """Read a ``.lbr`` profile; a malformed one is a ``ValueError`` naming the problem."""
    data = Path(path).read_bytes()
    if len(data) < _HEADER_BYTES:
        raise ValueError(f"{path}: truncated header ({len(data)} of {_HEADER_BYTES} bytes)")
    if data[:4] != _MAGIC:
        raise ValueError(f"{path}: not an LBR profile (bad magic)")
    version, period, count = struct.unpack_from("<HII", data, 4)
    if version != _VERSION:
        raise ValueError(f"{path}: unsupported profile version {version}")
    offset = _HEADER_BYTES
    sizes, records = [], []
    for i in range(count):
        if offset + 2 > len(data):
            raise ValueError(f"{path}: the header counts {count} samples, the file holds {i}")
        (nrec,) = struct.unpack_from("<H", data, offset)
        end = offset + 2 + 16 * nrec
        if end > len(data):
            raise ValueError(f"{path}: sample {i} is cut short ({nrec} records, "
                             f"{len(data) - offset - 2} bytes)")
        sizes.append(nrec)
        records.append(data[offset + 2:end])
        offset = end
    if offset != len(data):
        raise ValueError(f"{path}: trailing bytes in profile")
    pairs = np.frombuffer(b"".join(records), dtype="<u8").reshape(-1, 2)
    return PerfData(pairs[:, 0], pairs[:, 1], np.cumsum([0] + sizes), period)
