"""Scenario description language: tokenizer, parser, validator, formatter, sampler.

The language is a small Scenic-flavoured DSL for ground-traffic scenes.  A
script declares tunable parameters, behaviors, placed objects, requirements,
and a termination condition.  See docs/language.md in the repository for the
grammar reference.
"""

from scenekit.dsl.diagnostics import Diagnostic, Severity, Span, has_errors
from scenekit.dsl.tokens import Token, TokenKind, tokenize
from scenekit.dsl.nodes import (
    Action,
    ActionKind,
    AgentClass,
    Absolute,
    BehaviorDef,
    BehaviorRef,
    Choice,
    Constant,
    DistanceToEgoBelow,
    ObjectDecl,
    OnLane,
    ParamDecl,
    ParamRef,
    Range,
    Relative,
    RequireCollision,
    RequireEgoSpeedAbove,
    ScenarioAst,
    TimeElapsed,
)
from scenekit.dsl.parser import parse
from scenekit.dsl.validator import validate
from scenekit.dsl.formatter import format_script
from scenekit.dsl.sampler import (
    ConcreteBehavior,
    ConcreteObject,
    ConcreteScenario,
    SampleError,
    VariationError,
    sample_parameters,
    sample_variations,
)


def compile_script(text: str) -> tuple[ScenarioAst | None, list[Diagnostic]]:
    """Tokenize, parse, and validate a script in one call.

    Returns the AST (or None when parsing failed) together with every
    diagnostic collected along the way.  The script is considered valid when
    no diagnostic has Error severity.
    """
    tokens, diags = tokenize(text)
    if has_errors(diags):
        return None, diags
    ast, parse_diags = parse(tokens)
    diags = diags + parse_diags
    if ast is None or has_errors(diags):
        return None, diags
    diags = diags + validate(ast)
    if has_errors(diags):
        return None, diags
    return ast, diags
