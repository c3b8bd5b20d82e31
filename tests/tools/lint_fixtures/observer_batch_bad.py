"""Known-bad fixture: BatchOnlyObserver accumulates state only in on_batch
(the engine's hook) and implements no merge(), so observer-merge-required
fires."""


class ReplayObserver:
    pass


class BatchOnlyObserver(ReplayObserver):
    def __init__(self) -> None:
        self._hits = 0

    def on_outcome(self, request, seq, outcome):
        pass

    def on_batch(self, chunk, batch):
        self._hits += int(batch.hit.sum())

    def finalize(self):
        return self._hits
