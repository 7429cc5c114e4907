"""Scenario generation with diagnostic-guided repair.

One generation is a short conversation: assemble the few-shot prompt, call
the endpoint, extract and compile the script.  When compilation fails, the
previous answer and its diagnostics (as JSON) are appended to the prompt and
the endpoint is asked for a corrected script, up to a bounded number of
repair rounds.  Every round is recorded in a transcript for auditability.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from scenekit.dsl import compile_script, format_script
from scenekit.dsl.diagnostics import Diagnostic, Severity, Span, diagnostics_json, only_errors
from scenekit.promptgen.client import EndpointConfig, call_llm
from scenekit.promptgen.extract import extract_script
from scenekit.promptgen.library import ExampleLibrary, select_examples
from scenekit.promptgen.template import DEFAULT_TEMPLATE, PromptTemplate, ScenarioType, assemble_prompt


@dataclass(frozen=True)
class GenerationRequest:
    scenario_type: ScenarioType
    k_examples: int = 3
    seed: int = 0
    temperature: float = 0.7
    repair_limit: int = 2  # repair rounds after the initial attempt


@dataclass
class GenerationRound:
    prompt: str
    response: str
    extracted: str | None
    diagnostics: list[dict]


@dataclass
class Transcript:
    scenario_type: str
    seed: int
    temperature: float
    example_ids: list[str]
    rounds: list[GenerationRound] = field(default_factory=list)
    outcome: str = "exhausted"  # "success" | "exhausted"
    script: str | None = None  # canonical formatted text on success

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def generate_scenario(
    request: GenerationRequest,
    library: ExampleLibrary,
    endpoint: EndpointConfig,
    template: PromptTemplate = DEFAULT_TEMPLATE,
) -> Transcript:
    """Run the generate-compile-repair loop and return its transcript.

    Transport and API failures propagate to the caller; they are environment
    problems, not script problems, so the repair loop does not absorb them.
    """
    examples = select_examples(library, request.scenario_type, request.k_examples, request.seed)
    prompt = assemble_prompt(template, request.scenario_type, [e.script_text for e in examples])
    transcript = Transcript(
        scenario_type=request.scenario_type.value,
        seed=request.seed,
        temperature=request.temperature,
        example_ids=[e.id for e in examples],
    )

    for _ in range(request.repair_limit + 1):
        response = call_llm(endpoint, prompt, request.temperature, request.seed)
        extracted = extract_script(response)
        if extracted is None:
            ast = None
            diags = [
                Diagnostic(
                    Severity.ERROR,
                    Span.point(1, 1),
                    "E_EMPTY_SCRIPT",
                    "no script found in the response",
                )
            ]
        else:
            ast, diags = compile_script(extracted)
        transcript.rounds.append(
            GenerationRound(prompt, response, extracted, [d.to_record() for d in diags])
        )
        if ast is not None:
            transcript.outcome = "success"
            transcript.script = format_script(ast)
            return transcript
        errors = only_errors(diags) or diags
        repair = (
            "Your previous script had these errors:\n"
            f"{diagnostics_json(errors)}\n"
            "Please return a corrected full script."
        )
        prompt = f"{prompt}\n\n{response}\n\n{repair}"

    return transcript
