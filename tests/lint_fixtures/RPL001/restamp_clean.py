# lint-fixture-path: repro/core/example.py
"""Patch and re-stamp in one function; memos without a stamp partner are exempt."""


class Database:
    def columnar(self):
        if self._columnar is None or self._columnar_epoch != self._epoch:
            self._columnar = build_columnar(self.objects)
            self._columnar_epoch = self._epoch
        return self._columnar

    def move(self, row, obj):
        self.objects[row] = obj
        self._adopt(self._columnar.replaced(row, obj))

    def _adopt(self, snapshot):
        self._columnar = snapshot
        self._columnar_epoch = self._epoch

    def attach(self, cache):
        # A handle on a shared cache object, not a memo of this collection:
        # nothing named ``_cache_epoch`` exists to pair it with.
        self._cache = cache
