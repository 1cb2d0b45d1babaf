"""regcheck: classify regulatory provisions and check artifacts for compliance."""

from .classify import LabelSet, classify_keywords, fuse_labels
from .compliance import (
    ComplianceReport,
    Finding,
    PromptBundle,
    assemble_report,
    build_prompt,
    check_passage,
    parse_response,
)
from .corpus import (
    Block,
    Passage,
    Provision,
    SourceDocument,
    chunk_paragraphs,
    estimate_tokens,
    expand_list_items,
    extract_provisions,
    parse_document,
    split_text,
)
from .errors import (
    BackendError,
    CorruptCacheEntry,
    MalformedInput,
    ParseError,
    RegcheckError,
    SchemaError,
    ScriptExhausted,
    TemplateError,
    UnchunkableText,
    UnitMismatch,
    UnknownModelPrice,
)
from .evaluation import (
    ConfusionCounts,
    GoldRecord,
    MetricsReport,
    RunAggregate,
    aggregate_runs,
    compare_granularity,
    confusion,
    match_accuracy,
    match_mode,
    metrics,
)
from .llm import (
    BackendConfig,
    ChatMessage,
    CostLedger,
    StubBackend,
    StubEntry,
    Usage,
    make_backend,
)
from .taxonomy import (
    Concept,
    ConceptModel,
    RuleSpec,
    Ruleset,
    load_concept_model,
    load_ruleset,
    render_rules,
)

__version__ = "0.1.0"
