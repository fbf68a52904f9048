"""Work budgets for ``spokenud eval`` that no clock can blur.

Spies count the calls of the facts the scorers rebuild from each pair:
``core.annotatable_tokens`` and ``core.mwe_component_ids`` (in every module
that binds them), ``Sentence.token_index`` and ``Alignment.one_one``. Each
pair of a fixed seeded corpus runs through ``cli.main(["eval", ...])`` on its
own, and no pair may call a builder more often than its budget. A change that
builds a fact fewer times lowers its budget in the same change.
"""

import sys

import pytest

from spokenud import cli, core, flexud
from spokenud.ioformats import emit_conllu

from test_eval_golden import corpus

PAIRS = 30
# Calls per pair; each bound is the count measured when it was set.
BUDGETS = {
    "annotatable_tokens": 4,  # measured 4: attachment 2, components 1, severity 1
    "mwe_component_ids": 4,  # measured 4, all through annotatable_tokens
    "token_index": 7,  # measured 7: the reader's repeated-id check 2, the scorers 5
    "one_one": 4,  # measured 4: align, attachment, components, severity 1 each
}


@pytest.fixture
def calls(monkeypatch):
    """Calls per builder; a test resets them to 0 per pair."""
    counts = dict.fromkeys(BUDGETS, 0)

    def spy(name, original):
        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return counted

    for name in ("annotatable_tokens", "mwe_component_ids"):
        original = getattr(core, name)
        counted = spy(name, original)
        for module in [m for n, m in sys.modules.items() if n.startswith("spokenud")]:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    monkeypatch.setattr(core.Sentence, "token_index",
                        spy("token_index", core.Sentence.token_index))
    monkeypatch.setattr(flexud.Alignment, "one_one", spy("one_one", flexud.Alignment.one_one))
    return counts


def test_no_pair_builds_an_eval_fact_more_often_than_its_budget(tmp_path, calls, capsys):
    gold, system = tmp_path / "gold.conllu", tmp_path / "system.conllu"
    most = dict.fromkeys(BUDGETS, 0)
    for pair in zip(*(sentences[:PAIRS] for sentences in corpus())):
        for path, sentence in zip((gold, system), pair):
            path.write_text(emit_conllu([sentence]), encoding="utf-8")
        calls.update(dict.fromkeys(BUDGETS, 0))
        assert cli.main(["eval", "--gold", str(gold), "--system", str(system),
                         "--out", str(tmp_path / "out")]) == 0
        most = {name: max(most[name], calls[name]) for name in BUDGETS}
    capsys.readouterr()
    assert all(most.values()), most  # a spy that never fires measures nothing
    over = {name: count for name, count in most.items() if count > BUDGETS[name]}
    assert not over, over
