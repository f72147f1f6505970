"""Top-level builder: documentation in, aligned learned emulator out.

This is the public entry point a downstream user calls (Fig. 2 end to
end): wrangle the provider's documentation, extract SM specs with the
(simulated) LLM, link and check them, then run the automated alignment
loop against the cloud.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..alignment.loop import align_module, AlignmentReport
from ..cloud import ReferenceCloud
from ..docs import build_catalog, render_docs, wrangle
from ..docs.model import ServiceDoc
from ..durability.journal import as_journal, DurabilityStats
from ..extraction.pipeline import ExtractionOutcome, run_extraction
from ..interpreter.emulator import Emulator
from ..llm.client import make_llm, SimulatedLLM
from ..resilience.chaos import ChaosProfile, resolve_profile
from ..resilience.policy import RetryPolicy
from ..resilience.stats import ResilienceStats
from ..telemetry import ensure_telemetry


@dataclass
class LearnedEmulatorBuild:
    """Everything the build produced, plus a backend factory."""

    service: str
    extraction: ExtractionOutcome
    alignment: AlignmentReport | None
    llm: SimulatedLLM
    #: Whether backends made from this build compile by default.
    compile: bool = True
    #: Journal accounting for journaled builds (all-zero otherwise).
    durability: DurabilityStats = field(default_factory=DurabilityStats)

    @property
    def module(self):
        return self.extraction.module

    @property
    def api_count(self) -> int:
        return len(self.module.api_names())

    @property
    def resilience(self) -> ResilienceStats:
        """Combined resilience accounting across both pipeline phases."""
        stats = ResilienceStats()
        stats.merge(self.extraction.resilience)
        if self.alignment is not None:
            stats.merge(self.alignment.resilience)
        return stats

    def make_backend(self, telemetry=None,
                     compile: bool | None = None) -> Emulator:
        """A fresh emulator instance over the learned specification.

        ``telemetry`` (optional) gives the served emulator a run sink
        of its own: per-API-call spans with error codes.  ``compile``
        selects the compiled fast path versus the tree-walking
        evaluator (``None``: the build's own default).
        """
        use_compile = self.compile if compile is None else compile
        return Emulator(self.module,
                        notfound_codes=self.extraction.notfound_codes,
                        telemetry=telemetry, compile=use_compile)


def build_learned_emulator(
    service: str = "ec2",
    mode: str = "constrained",
    seed: int = 7,
    align: bool = True,
    checks_enabled: bool = True,
    alignment_rounds: int = 4,
    service_doc: ServiceDoc | None = None,
    chaos: ChaosProfile | str | None = None,
    resilience_policy: RetryPolicy | None = None,
    telemetry=None,
    parallel: int = 1,
    compile: bool = True,
    llm_cache=None,
    llm_latency: float = 0.0,
    journal=None,
    resume: bool = False,
) -> LearnedEmulatorBuild:
    """Run the full learned-emulator workflow for one service.

    ``mode`` selects the generation configuration (``constrained``,
    ``reprompt``, ``direct``, ``perfect``); ``align=False`` stops after
    extraction + checks (the "without alignment" variant of §5).

    ``chaos`` selects a fault-injection profile for both phases (a
    profile, a name, or ``None`` to read ``REPRO_CHAOS_PROFILE`` /
    default off); each phase wraps its remote dependency independently
    and reports what its resilience layer absorbed.

    ``telemetry`` (a :class:`~repro.telemetry.Telemetry`, or ``None``
    for the no-op sink) records the whole build as a span tree —
    extraction pass, per-resource generation, LLM requests, alignment
    rounds, differential traces, emulated API calls — plus token and
    fault metrics.  The disabled path is byte-identical to a build
    without instrumentation.

    ``parallel`` fans out both build phases: extraction waves run on a
    thread pool and each alignment round's differential pass is
    sharded.  ``llm_cache`` (a :class:`~repro.llm.PromptCache` or a
    path) replays repeated prompts; ``compile=False`` falls back to the
    tree-walking evaluator in every emulator the build runs.  The
    learned module — specs, quarantine set, repairs, convergence — is
    identical at any ``parallel`` width; under chaos, only the
    *accounting* of injected weather in the sharded diff pass may vary
    (each shard carries its own fault lane).

    ``llm_latency`` (seconds per generation call) makes the simulated
    LLM cost real wall-clock time, the way a remote model API does —
    see :attr:`~repro.llm.client.SimulatedLLM.latency`.

    ``journal`` (a directory path or a
    :class:`~repro.durability.BuildJournal`) makes the build crash
    safe: every completed extraction resource, targeted correction,
    and alignment round is recorded in an append-only fsync'd journal
    before the next one starts.  ``resume=True`` replays a prior
    journal instead of starting fresh — finished work is reinstated
    without the LLM and the build continues from the first incomplete
    unit, producing a byte-identical result to an uninterrupted run.
    The journal header fingerprints the build configuration; resuming
    with different parameters raises
    :class:`~repro.durability.DurabilityError`.
    """
    profile = resolve_profile(chaos)
    tele = ensure_telemetry(telemetry)
    llm = make_llm(mode, seed=seed, latency=llm_latency)
    llm.telemetry = telemetry
    jrnl = as_journal(journal, telemetry=telemetry)
    if jrnl is not None:
        fingerprint = {
            "service": service, "mode": mode, "seed": seed,
            "chaos": profile.name, "align": align,
            "checks_enabled": checks_enabled,
            "alignment_rounds": alignment_rounds,
        }
        if resume:
            jrnl.resume(fingerprint)
        else:
            jrnl.start(fingerprint)
    try:
        with tele.span(
            "build", kind="build", service=service, mode=mode, seed=seed,
            chaos=profile.name,
        ) as span:
            if service_doc is None:
                with tele.span("docs.wrangle", kind="docs", service=service):
                    catalog = build_catalog(service)
                    service_doc = wrangle(
                        render_docs(catalog), provider=catalog.provider,
                        service=service,
                    )
            extraction = run_extraction(
                service=service,
                seed=seed,
                llm=llm,
                service_doc=service_doc,
                checks_enabled=checks_enabled,
                chaos=profile,
                resilience_policy=resilience_policy,
                telemetry=telemetry,
                parallel=parallel,
                llm_cache=llm_cache,
                journal=jrnl,
            )
            alignment: AlignmentReport | None = None
            if align:
                # Build the ground-truth catalog once; the factory only
                # instantiates fresh state over it (sharded diff passes
                # call it once per shard per round).
                cloud_catalog = build_catalog(service)
                alignment = align_module(
                    extraction.module,
                    extraction.notfound_codes,
                    service_doc,
                    llm,
                    cloud_factory=lambda: ReferenceCloud(cloud_catalog),
                    max_rounds=alignment_rounds,
                    chaos=profile,
                    resilience_policy=resilience_policy,
                    telemetry=telemetry,
                    parallel=parallel,
                    compile=compile,
                    journal=jrnl,
                )
                span.set("converged", alignment.converged)
            span.set("machines", len(extraction.module.machines))
    finally:
        if jrnl is not None:
            jrnl.close()
    return LearnedEmulatorBuild(
        service=service, extraction=extraction, alignment=alignment,
        llm=llm, compile=compile,
        durability=jrnl.stats if jrnl is not None else DurabilityStats(),
    )
