"""The verification matrix: named machine configurations and the DSL.

A differential campaign compares *pairs* of machine configurations over
the same program corpus.  Each named configuration
(:class:`VerifyConfig`) maps onto :class:`~repro.vp.machine.MachineConfig`
knobs — execution backend, translation-block cache, instruction cache,
JIT trace fusion — plus one knob the machine config cannot express: a
``checkpoint`` run executes through a mid-run snapshot/rollback/resume
cycle instead of straight through.

The ``--matrix`` DSL is a comma-separated list of axes::

    backends     interp ~ compiled
    cache        translation-block cache on vs off
    icache       instruction-cache model off vs on (timing-variant)
    traces       compiled tier with trace fusion off vs on
    checkpoint   straight-through vs checkpoint-restore-resumed

plus explicit ``a:b`` pair tokens between any two named configurations
(e.g. ``--matrix interp:compiled``).  Parsing is pure and deterministic:
the same spec string always yields the same ordered pair list, which is
one of the properties the cluster's byte-identical shard merge rests on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..vp.backends import DEFAULT_BACKEND

__all__ = [
    "AXES",
    "CONFIGS",
    "ConfigPair",
    "VerifyConfig",
    "VerifyMatrix",
    "parse_matrix",
]


@dataclass(frozen=True)
class VerifyConfig:
    """One named machine configuration in the verification matrix."""

    name: str
    backend: str = DEFAULT_BACKEND
    block_cache: bool = True
    icache: bool = False
    jit_threshold: Optional[int] = None
    jit_trace_threshold: Optional[int] = None
    #: Run through a mid-run snapshot -> roll forward -> restore -> resume
    #: cycle instead of straight through (same MachineConfig as baseline).
    checkpoint: bool = False
    #: True when the config changes the *timing* model (cycle counts are
    #: then excluded from digest comparison for pairs touching it).
    timing_variant: bool = False

    def machine_config(self, isa):
        """The :class:`~repro.vp.machine.MachineConfig` this names."""
        from ..vp.icache import ICacheConfig
        from ..vp.machine import MachineConfig

        kwargs = {
            "isa": isa,
            "backend": self.backend,
            "block_cache_enabled": self.block_cache,
        }
        if self.icache:
            kwargs["icache"] = ICacheConfig()
        if self.jit_threshold is not None:
            kwargs["jit_threshold"] = self.jit_threshold
        if self.jit_trace_threshold is not None:
            kwargs["jit_trace_threshold"] = self.jit_trace_threshold
        return MachineConfig(**kwargs)


@dataclass(frozen=True)
class ConfigPair:
    """Two configurations to run and compare over every program."""

    a: VerifyConfig
    b: VerifyConfig

    @property
    def name(self) -> str:
        return f"{self.a.name}~{self.b.name}"

    @property
    def compare_cycles(self) -> bool:
        """Cycle counts only compare when neither side alters timing."""
        return not (self.a.timing_variant or self.b.timing_variant)


#: Named configurations the DSL can reference.  ``compiled`` promotes
#: blocks after one execution so the repeat-wrapped corpus programs
#: actually exercise the JIT tier; ``compiled+traces`` additionally fuses
#: hot chains into multi-block traces on the first hot edge.
CONFIGS: Dict[str, VerifyConfig] = {
    config.name: config
    for config in (
        VerifyConfig(name="interp", backend="interp"),
        VerifyConfig(name="compiled", backend="compiled",
                     jit_threshold=1, jit_trace_threshold=1_000_000),
        VerifyConfig(name="compiled+traces", backend="compiled",
                     jit_threshold=1, jit_trace_threshold=1),
        VerifyConfig(name="nocache", backend="interp", block_cache=False),
        VerifyConfig(name="icache", backend="interp", icache=True,
                     timing_variant=True),
        VerifyConfig(name="ckpt-resume", backend="interp", checkpoint=True),
    )
}

#: Axis name -> the (a, b) config-name pairs it contributes.
AXES: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "backends": (("interp", "compiled"),),
    "cache": (("interp", "nocache"),),
    "icache": (("interp", "icache"),),
    "traces": (("compiled", "compiled+traces"),),
    "checkpoint": (("interp", "ckpt-resume"),),
}


@dataclass(frozen=True)
class VerifyMatrix:
    """A parsed matrix: the spec string and its ordered config pairs."""

    spec: str
    pairs: Tuple[ConfigPair, ...]

    @property
    def pair_names(self) -> List[str]:
        return [pair.name for pair in self.pairs]

    def configs(self) -> List[VerifyConfig]:
        """The distinct configurations the matrix touches, in first-use
        order — each is built (and its machine reused) exactly once."""
        seen: Dict[str, VerifyConfig] = {}
        for pair in self.pairs:
            for config in (pair.a, pair.b):
                seen.setdefault(config.name, config)
        return list(seen.values())


def _pair(a_name: str, b_name: str) -> ConfigPair:
    for name in (a_name, b_name):
        if name not in CONFIGS:
            raise ValueError(
                f"unknown verify configuration {name!r}; "
                f"known: {', '.join(sorted(CONFIGS))}")
    if a_name == b_name:
        raise ValueError(f"a pair needs two distinct configurations, "
                         f"got {a_name!r} twice")
    return ConfigPair(CONFIGS[a_name], CONFIGS[b_name])


def parse_matrix(spec: str) -> VerifyMatrix:
    """Parse a ``--matrix`` spec into its ordered, deduplicated pairs.

    Tokens are axis names (expanding to their pair lists) or explicit
    ``a:b`` pairs of named configurations.  Raises :class:`ValueError`
    naming the valid axes/configs on any unknown token.
    """
    tokens = [token.strip() for token in spec.split(",") if token.strip()]
    if not tokens:
        raise ValueError(
            f"empty matrix spec; valid axes: {', '.join(AXES)}")
    pairs: List[ConfigPair] = []
    seen = set()
    for token in tokens:
        if ":" in token:
            a_name, _, b_name = token.partition(":")
            expanded = [_pair(a_name.strip(), b_name.strip())]
        elif token in AXES:
            expanded = [_pair(a, b) for a, b in AXES[token]]
        else:
            raise ValueError(
                f"unknown matrix axis {token!r}; valid axes: "
                f"{', '.join(AXES)} (or an explicit 'a:b' pair of "
                f"{', '.join(sorted(CONFIGS))})")
        for pair in expanded:
            if pair.name not in seen:
                seen.add(pair.name)
                pairs.append(pair)
    return VerifyMatrix(spec=",".join(tokens), pairs=tuple(pairs))
