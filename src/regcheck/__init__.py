"""regcheck: classify regulatory provisions and check artifacts for compliance.

Each name below loads its submodule on first use (PEP 562), not on import."""

__version__ = "0.1.0"

_SUBMODULE = {
    name: module
    for module, names in {
        "classify": ("classify_keywords", "fuse_labels"),
        "compliance": ("assemble_report", "build_prompt"),
        "corpus": ("chunk_paragraphs", "extract_provisions", "parse_document"),
        "llm": ("BackendConfig", "make_backend"),
        "pipeline": ("run_compliance",),
        "taxonomy": ("load_concept_model", "load_ruleset"),
    }.items()
    for name in names
}
__all__ = sorted(_SUBMODULE)


def __getattr__(name: str):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = globals()[name] = getattr(import_module(f".{_SUBMODULE[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
