"""Per-sentence pipeline driver and the ordered batch runner."""

from __future__ import annotations

from typing import Iterable

from ..backends import BackendError
from ..core import Sentence
from ..ioformats import DuplicateSentenceId
from .agents import SchemaViolation, run_agent
from .envelopes import FinalParse, SentenceFailure
from .finalize import finalize


def parse_sentence(sentence: Sentence, backend, config) -> FinalParse | SentenceFailure:
    """Run the fixed stage sequence over one tokenized sentence.

    Stage failures (schema violations after retries, backend errors) are
    contained in a SentenceFailure carrying the envelopes produced so far;
    a batch never aborts because one sentence failed.
    """
    envelopes: dict = {}
    stage = "sph"
    try:
        sph = run_agent("sph", sentence, backend, config)
        envelopes["sph"] = sph
        stage = "lsr"
        lsr = run_agent("lsr", sph, backend, config, input_sentence=sentence)
        envelopes["lsr"] = lsr
        stage = "core"
        core = run_agent("core", lsr, backend, config, input_sentence=sentence)
        envelopes["core"] = core
        return finalize(sph, lsr, core, config)
    except (SchemaViolation, BackendError) as err:
        return SentenceFailure(
            sentence_id=sentence.sentence_id,
            stage=stage.upper(),
            error=str(err),
            envelopes=envelopes,
            attempts=getattr(err, "attempts", None),
            violations=getattr(err, "violations", []),
        )


def run_batch(sentences: Iterable[Sentence], backend, config,
              workers: int = 1) -> list[FinalParse | SentenceFailure]:
    """Parse sentences on a bounded worker pool; results come back in
    sentence-id order regardless of completion order. A repeated sentence id
    raises DuplicateSentenceId before any backend call."""
    sentences = list(sentences)
    seen: set[str] = set()
    for sentence in sentences:
        if sentence.sentence_id in seen:
            raise DuplicateSentenceId(sentence.sentence_id)
        seen.add(sentence.sentence_id)
    results: dict[str, FinalParse | SentenceFailure] = {}
    if workers <= 1:
        for sentence in sentences:
            results[sentence.sentence_id] = parse_sentence(sentence, backend, config)
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = {pool.submit(parse_sentence, s, backend, config):
                       s.sentence_id for s in sentences}
            for future, sid in futures.items():
                results[sid] = future.result()
    return [results[sid] for sid in sorted(results)]
