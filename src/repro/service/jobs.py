"""Job specifications: what a service request asks the engine pool for.

A :class:`JobSpec` is the wire-level unit of work — a plain, hashable,
JSON-able description of one render: which game, which technique, how
many frames, which config preset plus overrides, and which *tenant* the
result is recorded under.  Everything the daemon does (admission,
batching by config digest, warm-pool keying, per-tenant registry
namespacing) keys off fields of the spec, so validation happens once,
up front, in :meth:`JobSpec.validated` — a malformed request is
rejected at the socket, never half-way through a worker.

Sweep and experiment requests arrive as one payload and *expand* into
their render jobs here (:func:`expand_payload`), reusing the same grids
the CLI's ``sweep`` and ``experiment`` subcommands fan out — so a
service sweep renders exactly the cells a CLI sweep would.
"""

from __future__ import annotations

import dataclasses
import typing

from ..config import GpuConfig
from ..engine.factory import TECHNIQUES
from ..errors import ConfigError, ReproError, ServiceError
from ..harness.experiments import EXPERIMENT_TECHNIQUES
from ..harness.parallel import Cell
from ..harness.sweeps import expand_grid
from ..obs.store import validate_tenant
from ..workloads.games import BENCHMARKS, FIGURE_ORDER, PSEUDO_WORKLOADS

__all__ = [
    "DEFAULT_TENANT",
    "JOB_KINDS",
    "KNOWN_ALIASES",
    "SCALES",
    "JobSpec",
    "expand_payload",
    "known_aliases",
]

#: Tenant a spec that does not name one records under.
DEFAULT_TENANT = "default"

#: Payload kinds :func:`expand_payload` understands.
JOB_KINDS = ("render", "sweep", "experiment")

#: Config presets a spec may name (mirrors the CLI's ``--scale``).
SCALES = ("small", "benchmark", "mali450")

#: The hard-coded workload aliases (games + pseudo-workloads).  Kept as
#: a constant for compatibility; admission control validates against
#: :func:`known_aliases`, which also sees DSL-registered workloads.
KNOWN_ALIASES = tuple(info.alias for info in BENCHMARKS) + PSEUDO_WORKLOADS


def known_aliases() -> tuple:
    """Every renderable alias right now: builtins plus DSL workloads.

    Computed per call because DSL workloads are file-registered — a
    scene dropped into ``$REPRO_WORKLOAD_PATH`` while the daemon runs
    is admissible without a restart.
    """
    from ..workloads.games import all_workload_aliases

    return all_workload_aliases()


def _preset(scale: str) -> GpuConfig:
    return {
        "small": GpuConfig.small,
        "benchmark": GpuConfig.benchmark,
        "mali450": GpuConfig.mali450,
    }[scale]()


@dataclasses.dataclass(frozen=True)
class JobSpec:
    """One render request, normalized and hashable.

    ``overrides`` is a sorted tuple of ``(GpuConfig field, value)``
    pairs rather than a dict so specs hash (the pool and the batcher
    key on them) and serialize canonically.  Use :meth:`from_dict` to
    build one from wire JSON — it normalizes a dict of overrides.
    """

    alias: str
    technique: str = "re"
    num_frames: int = 12
    exact_signatures: bool = False
    scale: str = "small"
    overrides: tuple = ()
    tenant: str = DEFAULT_TENANT
    #: Distributed-tracing context as sorted ``(key, value)`` pairs
    #: (kept a tuple so specs stay hashable).  Pure telemetry: it is
    #: excluded from :meth:`digest` and pool keying, so traced and
    #: untraced jobs batch and share warm engines identically.
    trace: tuple = ()

    @property
    def label(self) -> str:
        return f"{self.alias}/{self.technique}"

    def validated(self) -> "JobSpec":
        """Full up-front validation; returns ``self`` or raises.

        Tenant problems raise :class:`~repro.errors.TenantError` (an
        admission error — the id is attacker-controlled wire input);
        everything else raises :class:`~repro.errors.ServiceError`.
        """
        if self.alias not in known_aliases():
            from ..workloads.games import unknown_workload_message

            raise ServiceError(unknown_workload_message(self.alias))
        if self.technique not in TECHNIQUES:
            raise ServiceError(
                f"unknown technique {self.technique!r} "
                f"(choose from {', '.join(TECHNIQUES)})"
            )
        if self.scale not in SCALES:
            raise ServiceError(
                f"unknown scale {self.scale!r} "
                f"(choose from {', '.join(SCALES)})"
            )
        if not isinstance(self.num_frames, int) or self.num_frames < 1:
            raise ServiceError(
                f"num_frames must be a positive integer, "
                f"got {self.num_frames!r}"
            )
        validate_tenant(self.tenant)
        self.config()            # raises on bad override names/values
        return self

    def config(self) -> GpuConfig:
        """The spec's :class:`GpuConfig`: preset plus overrides."""
        config = _preset(self.scale)
        if not self.overrides:
            return config
        try:
            return dataclasses.replace(config, **dict(self.overrides))
        except (TypeError, ConfigError) as exc:
            raise ServiceError(
                f"bad config overrides {dict(self.overrides)!r}: {exc}"
            ) from None

    def digest(self) -> str:
        """The config digest batching and pool keying group by."""
        return self.config().digest()

    def cell(self) -> Cell:
        """This spec as a harness cell (seed derivation, fault specs)."""
        return Cell(
            self.alias, self.technique, self.num_frames,
            exact_signatures=self.exact_signatures,
        )

    # Distributed tracing ------------------------------------------------
    def trace_context(self):
        """The carried :class:`~repro.obs.distributed.TraceContext`,
        or ``None`` when the submitter did not trace this request."""
        from ..obs.distributed import TraceContext

        return TraceContext.from_mapping(dict(self.trace))

    def with_trace(self, context) -> "JobSpec":
        """A copy carrying ``context`` (a TraceContext or mapping)."""
        mapping = (context.to_dict()
                   if hasattr(context, "to_dict") else dict(context or {}))
        return dataclasses.replace(
            self, trace=tuple(sorted(mapping.items())),
        )

    # Wire format --------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "alias": self.alias,
            "technique": self.technique,
            "num_frames": self.num_frames,
            "exact_signatures": self.exact_signatures,
            "scale": self.scale,
            "overrides": dict(self.overrides),
            "tenant": self.tenant,
            "trace": dict(self.trace),
        }

    @classmethod
    def from_dict(cls, data: typing.Mapping) -> "JobSpec":
        """Build a spec from wire JSON (tolerates missing optionals)."""
        if not isinstance(data, typing.Mapping):
            raise ServiceError(
                f"job spec must be an object, got {type(data).__name__}"
            )
        if "alias" not in data and "game" not in data:
            raise ServiceError("job spec is missing 'game'")
        overrides = data.get("overrides") or {}
        if not isinstance(overrides, typing.Mapping):
            try:
                overrides = dict(overrides)
            except (TypeError, ValueError):
                raise ServiceError(
                    f"bad overrides {overrides!r}: expected an object of "
                    "GpuConfig field -> value"
                ) from None
        trace = data.get("trace") or {}
        if not isinstance(trace, typing.Mapping):
            trace = {}          # telemetry only — never refuse the job
        return cls(
            alias=data.get("alias", data.get("game")),
            technique=data.get("technique", "re"),
            num_frames=int(data.get("num_frames", 12)),
            exact_signatures=bool(data.get("exact_signatures", False)),
            scale=data.get("scale", "small"),
            overrides=tuple(sorted(overrides.items())),
            tenant=data.get("tenant", DEFAULT_TENANT),
            trace=tuple(sorted(
                (str(key), value) for key, value in trace.items()
            )),
        )


def _expand_experiment(base: JobSpec, experiment_id: str,
                       aliases: typing.Sequence = None) -> list:
    """An experiment's prefetch matrix as render jobs — the same
    (game, technique) cells ``repro experiment --jobs`` would warm."""
    if experiment_id not in EXPERIMENT_TECHNIQUES:
        raise ServiceError(
            f"unknown experiment {experiment_id!r} "
            f"(choose from {', '.join(sorted(EXPERIMENT_TECHNIQUES))})"
        )
    aliases = tuple(aliases) if aliases else FIGURE_ORDER
    return [
        dataclasses.replace(base, alias=alias, technique=technique)
        for alias in aliases
        for technique in EXPERIMENT_TECHNIQUES[experiment_id]
    ]


def expand_payload(payload: typing.Mapping) -> list:
    """Expand one submit payload into its validated render jobs.

    ``payload["kind"]`` selects the expansion (default ``render``):

    * ``render``     — the payload is one :class:`JobSpec`;
    * ``sweep``      — ``parameters: {field: [values...]}`` expands to
      the cartesian grid (:func:`~repro.harness.sweeps.expand_grid`, so
      duplicate points are refused like a CLI sweep's), each point a
      render job whose overrides carry its assignment;
    * ``experiment`` — ``id: fig14a`` expands to that experiment's
      (game, technique) prefetch matrix.

    Every expanded spec is validated; the list is rejected atomically
    (one bad point means nothing was accepted).
    """
    kind = payload.get("kind", "render")
    if kind not in JOB_KINDS:
        raise ServiceError(
            f"unknown job kind {kind!r} (choose from {', '.join(JOB_KINDS)})"
        )
    if kind == "experiment" and "alias" not in payload \
            and "game" not in payload:
        payload = dict(payload)
        payload["alias"] = FIGURE_ORDER[0]      # placeholder; replaced
    base = JobSpec.from_dict(payload)
    if kind == "render":
        specs = [base]
    elif kind == "sweep":
        parameters = payload.get("parameters")
        if not parameters:
            raise ServiceError("sweep payload needs non-empty 'parameters'")
        base_config = base.config()
        try:
            grid = expand_grid(base.alias, base.technique, parameters,
                               base_config=base_config)
        except (ReproError, TypeError) as exc:
            raise ServiceError(f"bad sweep: {exc}") from None
        specs = [
            dataclasses.replace(base, overrides=tuple(sorted(
                {**dict(base.overrides), **assignment}.items())))
            for assignment, _, _ in grid
        ]
    else:
        specs = _expand_experiment(
            base, payload.get("id"), payload.get("games"),
        )
    return [spec.validated() for spec in specs]
