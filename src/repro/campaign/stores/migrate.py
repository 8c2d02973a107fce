"""``repro cache migrate``: bring a cache directory into the record format.

:class:`~repro.campaign.stores.JsonDirStore` serves only *records*
(see :mod:`repro.campaign.stores.disk`).  Caches written before the
record format existed hold *bare* ``<hh>/<key>.json`` files — the
payload dict alone — whose keys may still be live.  :func:`migrate`
wraps each one in place: same key, payload unchanged, kind taken from
the key prefix, ``spec: null`` and ``cache_version: "unrecorded"``.
After that ``get`` serves it and ``stats`` labels it ``unrecorded``.

Records stamped with a cache version other than ``CACHE_VERSION``
are reported as *stale* and left untouched: a ``CACHE_VERSION`` bump
changes every key, so no current spec can name them (``cache prune
--max-entries`` evicts them, oldest first).  ``dry_run`` reports without writing, and a
second run is a no-op.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.campaign.spec import CACHE_VERSION
from repro.campaign.stores.disk import (
    UNRECORDED,
    JsonDirStore,
    is_record,
    make_record,
    version_of,
)


@dataclass
class MigrationReport:
    """What one :func:`migrate` pass saw and did."""

    target: str
    dry_run: bool
    #: Entries examined.
    scanned: int = 0
    #: Bare files wrapped into records (or, dry-run, that would be).
    wrapped: int = 0
    #: Records stamped with the current ``CACHE_VERSION``.
    current: int = 0
    #: Records wrapped by an earlier pass (no recorded version).
    unrecorded: int = 0
    #: Records stamped with any other version; left untouched.
    stale: int = 0
    #: Pre-migration per-version census of everything scanned.
    by_version: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "dry_run": self.dry_run,
            "scanned": self.scanned,
            "wrapped": self.wrapped,
            "current": self.current,
            "unrecorded": self.unrecorded,
            "stale": self.stale,
            "by_version": dict(sorted(self.by_version.items())),
        }


def migrate(store: JsonDirStore, *, dry_run: bool = False) -> MigrationReport:
    """Wrap every bare entry of ``store`` in place; report stale ones."""
    report = MigrationReport(target=CACHE_VERSION, dry_run=dry_run)
    for key, document in list(store.iter_records()):
        report.scanned += 1
        label = version_of(document)
        report.by_version[label] = report.by_version.get(label, 0) + 1
        if not is_record(document):
            report.wrapped += 1
            if not dry_run:
                store.write_document(key, make_record(
                    document, {"cache_version": UNRECORDED}, key=key
                ))
        elif label == CACHE_VERSION:
            report.current += 1
        elif label == UNRECORDED:
            report.unrecorded += 1
        else:
            report.stale += 1
    return report
