"""Basic block section directives: the cc_prof / ld_prof file formats.

Phase 3 communicates with Phase 4 through two small text files
(Figure 1):

* ``cc_prof.txt`` drives the *distributed* codegen backends: for each
  hot function, the basic-block clusters to place in separate sections.
  The format follows LLVM's ``-fbasic-block-sections=list``::

      !function_name
      !!0 3 5       <- cluster 0 (primary; must start with the entry block)
      !!2 4         <- cluster 1 (section  function_name.1)

  Blocks not listed in any cluster land in ``function_name.cold``.

* ``ld_prof.txt`` drives the final relink: one section-leader symbol
  per line, in the desired global layout order.

Keeping these summaries tiny is what lets the optimization run as
distributed actions (§3.5): the whole-program decision is a few
kilobytes of text, not an in-memory binary image.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence


def format_cc_prof(specs: Mapping[str, Sequence[Sequence[int]]]) -> str:
    """Serialize cluster directives to the cc_prof text format."""
    lines: List[str] = []
    for func in sorted(specs):
        lines.append(f"!{func}")
        for cluster in specs[func]:
            lines.append("!!" + " ".join(str(bb) for bb in cluster))
    return "\n".join(lines) + ("\n" if lines else "")


def parse_cc_prof(text: str) -> Dict[str, List[List[int]]]:
    """Parse the cc_prof text format back into cluster directives."""
    specs: Dict[str, List[List[int]]] = {}
    current: List[List[int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("!!"):
            if not current and not specs:
                raise ValueError(f"line {lineno}: cluster before any function")
            body = line[2:].strip()
            if not body:
                raise ValueError(f"line {lineno}: empty cluster")
            current.append([int(tok) for tok in body.split()])
        elif line.startswith("!"):
            current = []
            func = line[1:].strip()
            if not func:
                raise ValueError(f"line {lineno}: empty function name")
            if func in specs:
                raise ValueError(f"line {lineno}: duplicate function {func!r}")
            specs[func] = current
        else:
            raise ValueError(f"line {lineno}: unrecognized directive {line!r}")
    return specs


def format_ld_prof(symbol_order: Sequence[str]) -> str:
    """Serialize the global symbol ordering file."""
    return "\n".join(symbol_order) + ("\n" if symbol_order else "")


def parse_ld_prof(text: str) -> List[str]:
    """Parse a symbol ordering file (blank lines and # comments skipped)."""
    order: List[str] = []
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            order.append(line)
    return order
