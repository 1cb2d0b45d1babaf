"""regcheck: classify regulatory provisions and check artifacts for compliance."""

from .classify import classify_keywords, fuse_labels
from .compliance import assemble_report, build_prompt, check_passage
from .corpus import chunk_paragraphs, extract_provisions, parse_document
from .llm import BackendConfig, make_backend
from .taxonomy import load_concept_model, load_ruleset

__version__ = "0.1.0"
