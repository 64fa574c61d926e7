"""Line-oriented scenario files: parsing and validation.

Grammar (see docs/scenario-format.md): top-level lines are `key value...`;
the section headers `field <kind>` and `command <name>` open indented
blocks of `key value...` lines (two-space indent).  `#` starts a comment.
Numbers are plain floats/ints; lists are whitespace separated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ScenarioError
from .fields import FIELD_KINDS, Box, make_field

_COMMANDS = ("flowbox", "poincare", "shadow", "split", "pipeline",
             "fixedpoint", "expansive", "constants")

# known keys per command (validation reports unknown keys with their line)
_COMMAND_KEYS = {
    "flowbox": {"bases", "grid", "sample-box"},
    "poincare": {"bases", "sample-box", "t"},
    "shadow": {"pairs", "epsilon", "t-factor", "sample-box"},
    "split": {"start", "burn", "t-block", "blocks", "dim-s", "warmup",
              "c", "lambda", "t-grid", "cocycle-u"},
    "fixedpoint": {"systems", "starts", "blocks", "kappa-max"},
    "expansive": {"mode", "samples", "points", "sample-box", "burn",
                  "horizon", "epsilons", "deltas", "lattice", "grid",
                  "budget", "lipschitz"},
    "constants": {"t", "epsilons", "sample-box", "samples"},
}
# pipeline shares split's window (cli._split_window), so it takes its keys
_COMMAND_KEYS["pipeline"] = _COMMAND_KEYS["split"] | {"sample-box"}

_FIELD_KEYS = {"matrix", "params", "domain"}


@dataclass
class Scenario:
    field_kind: str
    field_options: dict
    command: str
    options: dict
    out: str = "out"
    seed: int = 0
    tol: float = 1e-9
    source: str = "<memory>"

    def build_field(self):
        kind = self.field_kind
        if kind not in FIELD_KINDS:
            raise ScenarioError(
                f"unknown field kind {kind!r}; registry: {sorted(FIELD_KINDS)}")
        opts = self.field_options
        params = ()
        if "matrix" in opts:
            params = tuple(opts["matrix"])
        elif "params" in opts:
            params = tuple(opts["params"])
        domain = None
        if "domain" in opts:
            vals = opts["domain"]
            if len(vals) % 2 != 0:
                raise ScenarioError("domain needs an even number of values")
            lo = np.asarray(vals[0::2], dtype=float)
            hi = np.asarray(vals[1::2], dtype=float)
            domain = Box(lo, hi)
        try:
            return make_field(kind, params, domain)
        except DomainError as exc:
            raise ScenarioError(str(exc)) from exc


def _tokenize(value_text):
    toks = value_text.split()
    out = []
    for tk in toks:
        try:
            out.append(int(tk))
            continue
        except ValueError:
            pass
        try:
            out.append(float(tk))
            continue
        except ValueError:
            pass
        out.append(tk)
    return out


def _simplify(tokens):
    if len(tokens) == 1:
        return tokens[0]
    return tokens


def parse_scenario(text, source="<memory>") -> Scenario:
    field_kind = None
    field_options = {}
    command = None
    options = {}
    top = {}
    section = None  # None | "field" | "command"
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].rstrip()
        if not stripped.strip():
            continue
        indented = stripped.startswith((" ", "\t"))
        parts = stripped.split(None, 1)
        key = parts[0]
        rest = parts[1] if len(parts) > 1 else ""
        if not indented:
            if key == "field":
                if not rest:
                    raise ScenarioError("field needs a kind", line=lineno)
                field_kind = rest.strip()
                section = "field"
            elif key == "command":
                if rest.strip() not in _COMMANDS:
                    raise ScenarioError(
                        f"unknown command {rest.strip()!r}; choose from {_COMMANDS}",
                        line=lineno)
                command = rest.strip()
                section = "command"
            elif key in ("out", "seed", "tol"):
                toks = _tokenize(rest)
                if len(toks) != 1:
                    raise ScenarioError(f"{key} takes one value", line=lineno)
                top[key] = toks[0]
                section = None
            else:
                raise ScenarioError(f"unknown top-level key {key!r}",
                                    line=lineno, column=1)
        else:
            if section == "field":
                if key not in _FIELD_KEYS:
                    raise ScenarioError(f"unknown field key {key!r}",
                                        line=lineno, column=3)
                field_options[key] = _tokenize(rest)
            elif section == "command":
                allowed = _COMMAND_KEYS[command]
                if key not in allowed:
                    raise ScenarioError(
                        f"unknown {command} key {key!r}; allowed: {sorted(allowed)}",
                        line=lineno, column=3)
                options[key] = _simplify(_tokenize(rest))
            else:
                raise ScenarioError("indented line outside a section",
                                    line=lineno, column=1)
    if field_kind is None:
        raise ScenarioError("scenario declares no field", line=1)
    if command is None:
        raise ScenarioError("scenario declares no command", line=1)
    sc = Scenario(field_kind=field_kind, field_options=field_options,
                  command=command, options=options, source=source)
    if "out" in top:
        sc.out = str(top["out"])
    if "seed" in top:
        sc.seed = int(top["seed"])
    if "tol" in top:
        sc.tol = float(top["tol"])
    return sc


def load_scenario(path) -> Scenario:
    from pathlib import Path
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    return parse_scenario(text, source=str(p))
