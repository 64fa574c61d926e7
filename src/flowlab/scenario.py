"""Line-oriented scenario files: parsing and validation.

Grammar (see docs/scenario-format.md): top-level lines are `key value...`;
the section headers `field <kind>` and `command <name>` open indented
blocks of `key value...` lines (two-space indent).  `#` starts a comment.
Values are whitespace-separated tokens; they stay strings until `typed`
checks them as the numbers their key needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, ScenarioError
from .fields import Box, make_field

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

_COUNT_KEYS = ("bases", "pairs", "samples", "systems", "starts", "blocks",
               "budget", "lattice")
# the least value of a key, and the keys whose values must exceed 0
_LEAST = {"burn": 0, "seed": 0, "grid": 2, **dict.fromkeys(_COUNT_KEYS, 1)}
_POSITIVE = {"t", "t-block", "t-factor", "epsilon", "epsilons", "deltas",
             "lipschitz", "kappa-max", "c", "lambda", "tol"}


def typed(key, tokens, n=None, kind=float):
    """The tokens of a scenario key as numbers of `kind`; a ScenarioError
    naming the key unless there are n of them (any count if n is None),
    each finite and of that kind (an integral float such as 2.0 is an
    integer), none below the key's least value, and each > 0 for a key
    of `_POSITIVE`."""
    if n is not None and len(tokens) != n:
        raise ScenarioError(f"{key} needs {n} number{'s' * (n != 1)}, "
                            f"got {len(tokens)}")
    vals = []
    for tok in tokens:
        try:
            v = float(tok)
        except ValueError:
            v = math.nan
        if not math.isfinite(v):
            raise ScenarioError(f"{key} needs numbers, got {tok!r}")
        if kind is int:
            if not v.is_integer():
                raise ScenarioError(f"{key} needs integers, got {tok!r}")
            v = int(tok) if tok.isdigit() else int(v)  # digits stay exact
        if v < _LEAST.get(key, -math.inf):
            raise ScenarioError(f"{key} must be >= {_LEAST[key]}, got {tok!r}")
        if key in _POSITIVE and v <= 0:
            raise ScenarioError(f"{key} must be > 0, got {tok!r}")
        vals.append(v)
    return vals


@dataclass
class Scenario:
    field_kind: str
    field_options: dict             # key -> tokens
    command: str
    options: dict                   # key -> tokens
    out: str = "out"
    seed: int = 0
    tol: float = 1e-9
    source: str = "<memory>"

    def numbers(self, key, n=None, default=(), kind=float):
        """A command key's values through `typed`; `default` if unset,
        unless it has not n values (a required key)."""
        tokens = self.options.get(key)
        if tokens is None and (n is None or len(default) == n):
            return list(default)
        return typed(key, tokens or [], n, kind)

    def number(self, key, default, kind=float):
        return self.numbers(key, 1, (default,), kind)[0]

    def word(self, key, choices, default):
        """A command key's one word, which must be one of `choices`."""
        word = " ".join(self.options.get(key, [default]))
        if word not in choices:
            raise ScenarioError(
                f"{key} must be one of {', '.join(choices)}, got {word!r}")
        return word

    def set_top(self, key, tokens):
        """Set the top-level `out` (one token), `seed` (an integer >= 0) or
        `tol` (a number > 0) from its tokens."""
        if key == "out":
            if len(tokens) != 1:
                raise ScenarioError("out takes one value")
            self.out = tokens[0]
        else:
            kind = int if key == "seed" else float
            setattr(self, key, typed(key, tokens, 1, kind)[0])

    def build_field(self):
        opts = self.field_options
        if "matrix" in opts and "params" in opts:
            raise ScenarioError("matrix and params exclude each other")
        params = [v for key in ("matrix", "params") if key in opts
                  for v in typed(key, opts[key])]
        vals = typed("domain", opts.get("domain", []))
        if len(vals) % 2 != 0:
            raise ScenarioError("domain needs an even number of values")
        try:
            domain = Box(vals[0::2], vals[1::2]) if vals else None
            return make_field(self.field_kind, params, domain)
        except DomainError as exc:
            raise ScenarioError(str(exc)) from exc


def parse_scenario(text, source="<memory>") -> Scenario:
    # section: None, "field" or the command's name
    field_kind = command = section = None
    field_options, options, top = {}, {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].rstrip()
        if not stripped.strip():
            continue
        key, *tokens = stripped.split()
        rest = " ".join(tokens)
        if not stripped.startswith((" ", "\t")):
            if key == "field":
                if not rest:
                    raise ScenarioError("field needs a kind", line=lineno)
                field_kind, section = rest, "field"
            elif key == "command":
                if rest not in _COMMANDS:
                    raise ScenarioError(
                        f"unknown command {rest!r}; choose from {_COMMANDS}",
                        line=lineno)
                command = section = rest
            elif key in ("out", "seed", "tol"):
                top[key], section = tokens, None
            else:
                raise ScenarioError(f"unknown top-level key {key!r}",
                                    line=lineno, column=1)
            continue
        if section is None:
            raise ScenarioError("indented line outside a section",
                                line=lineno, column=1)
        allowed = _FIELD_KEYS if section == "field" else _COMMAND_KEYS[section]
        if key not in allowed:
            raise ScenarioError(
                f"unknown {section} key {key!r}; allowed: {sorted(allowed)}",
                line=lineno, column=3)
        if not tokens:
            raise ScenarioError(f"{key} needs a value", line=lineno, column=3)
        (field_options if section == "field" else options)[key] = tokens
    if field_kind is None:
        raise ScenarioError("scenario declares no field", line=1)
    if command is None:
        raise ScenarioError("scenario declares no command", line=1)
    sc = Scenario(field_kind=field_kind, field_options=field_options,
                  command=command, options=options, source=source)
    for key, tokens in top.items():
        sc.set_top(key, tokens)
    return sc


def load_scenario(path) -> Scenario:
    from pathlib import Path
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    return parse_scenario(text, source=str(p))
