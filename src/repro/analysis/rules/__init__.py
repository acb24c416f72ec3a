"""The domain lint rules (RF001-RF015; RF014 is retired).

Each rule lives in its own module and registers here; the engine
instantiates :data:`RULES` fresh per run.  RF001-RF008 are per-file
AST rules; RF009-RF013 are the phase-2 concurrency/invariant rules
over the shared :class:`~repro.analysis.model.ProjectModel`; RF015 is
the hot-path vectorisation ratchet.  Rule ids are never reused.  See
``docs/STATIC_ANALYSIS.md`` for the rationale and a bad/good example
of every rule.
"""

from repro.analysis.rules.rf001_radians import RF001DegreesIntoTrig
from repro.analysis.rules.rf002_latlng import RF002LatLngOrder
from repro.analysis.rules.rf003_all import RF003PublicInAll
from repro.analysis.rules.rf004_mutable_defaults import RF004MutableDefault
from repro.analysis.rules.rf005_determinism import RF005Nondeterminism
from repro.analysis.rules.rf006_dualform import RF006DualFormNormalize
from repro.analysis.rules.rf007_rawunpack import RF007RawWireUnpack
from repro.analysis.rules.rf008_metric_names import RF008MetricNameLiteral
from repro.analysis.rules.rf009_lock_discipline import RF009LockDiscipline
from repro.analysis.rules.rf010_lock_order import RF010LockOrder
from repro.analysis.rules.rf011_epoch_protocol import RF011EpochProtocol
from repro.analysis.rules.rf012_blocking_under_lock import (
    RF012BlockingUnderLock,
)
from repro.analysis.rules.rf013_registration_drift import (
    RF013RegistrationDrift,
)
from repro.analysis.rules.rf015_columnloops import RF015ColumnLoop

RULES = (
    RF001DegreesIntoTrig,
    RF002LatLngOrder,
    RF003PublicInAll,
    RF004MutableDefault,
    RF005Nondeterminism,
    RF006DualFormNormalize,
    RF007RawWireUnpack,
    RF008MetricNameLiteral,
    RF009LockDiscipline,
    RF010LockOrder,
    RF011EpochProtocol,
    RF012BlockingUnderLock,
    RF013RegistrationDrift,
    RF015ColumnLoop,
)

__all__ = [
    "RULES",
    "RF001DegreesIntoTrig",
    "RF002LatLngOrder",
    "RF003PublicInAll",
    "RF004MutableDefault",
    "RF005Nondeterminism",
    "RF006DualFormNormalize",
    "RF007RawWireUnpack",
    "RF008MetricNameLiteral",
    "RF009LockDiscipline",
    "RF010LockOrder",
    "RF011EpochProtocol",
    "RF012BlockingUnderLock",
    "RF013RegistrationDrift",
    "RF015ColumnLoop",
]
