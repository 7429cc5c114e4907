"""Minimal chat-completions client over HTTP.

Transport failures (connection refused, timeout) are retried with exponential
backoff; HTTP error statuses are not retried, since a 4xx will not get better
by waiting and quota errors (429) should surface immediately.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import requests


class TransportError(Exception):
    """Could not reach the endpoint after all retry attempts."""


class ApiError(Exception):
    """The endpoint answered with a non-success status or malformed body."""

    def __init__(self, status: int, body: str):
        super().__init__(f"endpoint returned HTTP {status}: {body[:200]}")
        self.status = status
        self.body = body


class EmptyResponseError(Exception):
    """The endpoint answered successfully but with no usable content."""


@dataclass
class EndpointConfig:
    base_url: str
    model: str
    api_key: str | None = None
    timeout_s: float = 60.0
    attempts: int = 3
    backoff_s: float = 1.0


def call_llm(
    config: EndpointConfig,
    prompt: str,
    temperature: float,
    seed: int | None = None,
    sleep=time.sleep,
) -> str:
    """Send one user prompt, return the assistant text.

    Raises TransportError when the endpoint stays unreachable, ApiError on
    HTTP failure or a malformed envelope, EmptyResponseError when content is
    blank.  `sleep` is injectable so tests can skip real backoff waits.
    """
    url = config.base_url.rstrip("/") + "/chat/completions"
    payload: dict = {
        "model": config.model,
        "messages": [{"role": "user", "content": prompt}],
        "temperature": temperature,
    }
    if seed is not None:
        payload["seed"] = seed
    headers = {"Content-Type": "application/json"}
    if config.api_key:
        headers["Authorization"] = f"Bearer {config.api_key}"

    last_exc: Exception | None = None
    for attempt in range(1, config.attempts + 1):
        try:
            resp = requests.post(url, json=payload, headers=headers, timeout=config.timeout_s)
        except requests.RequestException as e:
            last_exc = e
            if attempt < config.attempts:
                sleep(config.backoff_s * 2 ** (attempt - 1))
            continue
        if resp.status_code // 100 != 2:
            raise ApiError(resp.status_code, resp.text)
        try:
            data = resp.json()
            content = data["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError):
            raise ApiError(resp.status_code, f"malformed completion body: {resp.text[:200]}") from None
        if content is None or not content.strip():
            raise EmptyResponseError("endpoint returned an empty completion")
        return content
    raise TransportError(
        f"could not reach {url} after {config.attempts} attempts: {last_exc}"
    ) from last_exc
