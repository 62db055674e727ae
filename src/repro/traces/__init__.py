"""Workloads: trace records, arrival/locality models, and generators.

Real traces from the paper (the VI-attached SQL Server TPC-C trace and
HP's Cello96) are proprietary; :mod:`repro.traces.oltp` and
:mod:`repro.traces.cello` generate seeded synthetic equivalents that
match the published characteristics (Table 2) and the distributional
properties the paper's analysis says drive the results. The Table 3
parameterized generator used by the write-policy study lives in
:mod:`repro.traces.synthetic`, the wider workload zoo (DBMS, CDN,
multi-tenant families) in :mod:`repro.traces.zoo`, and real-trace
importers (blktrace text, iostat reports) in
:mod:`repro.traces.ingest`. All of them stream rows through
:mod:`repro.traces.streaming` into columnar form.
"""

from repro.traces.arrivals import ExponentialArrivals, ParetoArrivals
from repro.traces.cello import CelloTraceConfig, generate_cello_trace_columnar
from repro.traces.columnar import ColumnarTrace, SharedTraceDescriptor
from repro.traces.fingerprint import trace_fingerprint
from repro.traces.ingest import (
    IMPORT_FORMATS,
    ImportSummary,
    import_to_csv,
    import_trace,
    sniff_format,
)
from repro.traces.locality import SpatialModel, ZipfStackModel
from repro.traces.oltp import OLTPTraceConfig, generate_oltp_trace_columnar
from repro.traces.record import IORequest, expand_accesses, iter_accesses
from repro.traces.stats import TraceCharacteristics, characterize
from repro.traces.streaming import TraceBuilder, build_columnar
from repro.traces.synthetic import (
    SyntheticTraceConfig,
    generate_synthetic_trace_columnar,
)
from repro.traces.zoo import (
    ZOO_WORKLOADS,
    CDNTraceConfig,
    DBMSTraceConfig,
    TenantTraceConfig,
    generate_cdn_trace,
    generate_dbms_trace,
    generate_tenant_trace,
)

#: The one workload table: name -> (config class, generator), every
#: generator streaming into a :class:`ColumnarTrace`. The CLI
#: (``generate``, ``simulate --workload``) and campaign specs
#: (``trace.workload``) resolve workload names through it.
WORKLOADS = {
    "oltp": (OLTPTraceConfig, generate_oltp_trace_columnar),
    "cello": (CelloTraceConfig, generate_cello_trace_columnar),
    "synthetic": (SyntheticTraceConfig, generate_synthetic_trace_columnar),
    **ZOO_WORKLOADS,
}

__all__ = [
    "CDNTraceConfig",
    "CelloTraceConfig",
    "ColumnarTrace",
    "DBMSTraceConfig",
    "ExponentialArrivals",
    "IMPORT_FORMATS",
    "IORequest",
    "ImportSummary",
    "OLTPTraceConfig",
    "ParetoArrivals",
    "SharedTraceDescriptor",
    "SpatialModel",
    "SyntheticTraceConfig",
    "TenantTraceConfig",
    "TraceBuilder",
    "TraceCharacteristics",
    "WORKLOADS",
    "ZOO_WORKLOADS",
    "ZipfStackModel",
    "build_columnar",
    "characterize",
    "expand_accesses",
    "generate_cdn_trace",
    "generate_cello_trace_columnar",
    "generate_dbms_trace",
    "generate_oltp_trace_columnar",
    "generate_synthetic_trace_columnar",
    "generate_tenant_trace",
    "import_to_csv",
    "import_trace",
    "sniff_format",
    "trace_fingerprint",
]
