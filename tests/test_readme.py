"""The README's library tour runs as written, on a small generated graph
in place of the data file it names."""

import re
from pathlib import Path

from plexmine import SynthConfig, generate, save_multiplex

README = Path(__file__).resolve().parent.parent / "README.md"
DATA_PATH = '"data/aarhus.edges"'


def test_library_tour_runs(tmp_path):
    tour = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    assert tour.count(DATA_PATH) == 1
    edges = str(tmp_path / "g.edges")
    save_multiplex(generate(SynthConfig(n=40, layers=3, avg_degree=4, n_labels=2, seed=3)), edges)
    scope: dict = {}
    exec(tour.replace(DATA_PATH, repr(edges)), scope)
    assert 0.0 <= scope["report"].auc <= 1.0
