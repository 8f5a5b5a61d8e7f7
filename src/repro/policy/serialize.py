"""Knowledge-base persistence.

Section 3.5 makes the policy base *programmable* — operators extend and
modify rules at runtime.  This module persists a knowledge base to JSON
so programmed policies survive across sessions, covering exact conditions
(including octant values) and factory-built fuzzy sets.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.policy.fuzzy import (
    FuzzySet,
    crisp_above,
    crisp_below,
    trapezoidal,
    triangular,
)
from repro.policy.kb import PolicyKnowledgeBase
from repro.policy.octant import Octant
from repro.policy.rules import Condition, Rule
from repro.util.fileio import write_file

__all__ = ["kb_to_json", "kb_from_json", "save_kb", "load_kb"]

_FUZZY_FACTORIES = {
    "triangular": triangular,
    "trapezoidal": trapezoidal,
    "crisp_above": crisp_above,
    "crisp_below": crisp_below,
}


def _encode_value(value: Any) -> Any:
    if isinstance(value, Octant):
        return {"__octant__": value.value}
    return value


def _decode_value(value: Any) -> Any:
    if isinstance(value, dict) and "__octant__" in value:
        return Octant(value["__octant__"])
    return value


def _encode_fuzzy(fset: FuzzySet) -> dict:
    if fset.spec is None:
        raise ValueError(
            f"fuzzy set {fset.name!r} was not built by a repro.policy.fuzzy "
            "factory and cannot be serialized"
        )
    kind, *params = fset.spec
    return {"kind": kind, "name": fset.name, "params": list(params)}


def _decode_fuzzy(d: dict) -> FuzzySet:
    kind = d["kind"]
    if kind not in _FUZZY_FACTORIES:
        raise ValueError(f"unknown fuzzy set kind {kind!r}")
    return _FUZZY_FACTORIES[kind](d["name"], *d["params"])


def kb_to_json(kb: PolicyKnowledgeBase) -> str:
    """Serialize every rule of the knowledge base to a JSON string."""
    rules = []
    for rule in kb.rules():
        rules.append(
            {
                "name": rule.name,
                "priority": rule.priority,
                "description": rule.description,
                "exact": {
                    k: _encode_value(v) for k, v in rule.condition.exact.items()
                },
                "fuzzy": {
                    k: _encode_fuzzy(f) for k, f in rule.condition.fuzzy.items()
                },
                "action": {
                    k: _encode_value(v) for k, v in rule.action.items()
                },
            }
        )
    return json.dumps({"rules": rules}, indent=2)


def kb_from_json(text: str) -> PolicyKnowledgeBase:
    """Inverse of :func:`kb_to_json`."""
    data = json.loads(text)
    kb = PolicyKnowledgeBase()
    for r in data["rules"]:
        action = {k: _decode_value(v) for k, v in r["action"].items()}
        # JSON turns action tuples into lists; restore known tuple fields.
        if isinstance(action.get("partitioners"), list):
            action["partitioners"] = tuple(action["partitioners"])
        kb.add(
            Rule(
                name=r["name"],
                condition=Condition(
                    exact={
                        k: _decode_value(v) for k, v in r["exact"].items()
                    },
                    fuzzy={
                        k: _decode_fuzzy(f) for k, f in r["fuzzy"].items()
                    },
                ),
                action=action,
                priority=r["priority"],
                description=r.get("description", ""),
            )
        )
    return kb


def save_kb(kb: PolicyKnowledgeBase, path: str | Path) -> None:
    """Write the knowledge base to ``path``."""
    write_file(path, kb_to_json(kb).encode("utf-8"))


def load_kb(path: str | Path) -> PolicyKnowledgeBase:
    """Read a knowledge base written by :func:`save_kb`."""
    return kb_from_json(Path(path).read_text())
