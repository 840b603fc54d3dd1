# lint-fixture-path: repro/core/example.py
"""A mutator patches the snapshot but leaves the epoch stamp to someone else."""


class Database:
    def columnar(self):
        if self._columnar is None or self._columnar_epoch != self._epoch:
            self._columnar = build_columnar(self.objects)
            self._columnar_epoch = self._epoch
        return self._columnar

    def move(self, row, obj):
        self.objects[row] = obj
        self._columnar = self._columnar.replaced(row, obj)

    def drop(self, row):
        del self.objects[row]
        if self.warm:
            self._columnar, self._dirty = None, True
