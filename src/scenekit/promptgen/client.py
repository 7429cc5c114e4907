"""Minimal chat-completions client over HTTP, on the standard library.

Transport failures (connection refused, timeout, a dropped connection) are
retried with exponential backoff; HTTP error statuses are not retried, since
a 4xx will not get better by waiting and quota errors (429) should surface
immediately.  Proxies and certificates are `urllib.request`'s defaults: the
`*_proxy` environment variables as they stand at the process's first request,
and the system CA store or `SSL_CERT_FILE`.  A 307/308 reply is an ApiError;
a 301/302/303 is followed as a GET without the API key.
"""

from __future__ import annotations

import http.client
import json
import time
import urllib.error
import urllib.parse
import urllib.request
from dataclasses import dataclass

from scenekit.jsonio import parse_json


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

    Raises TransportError when the endpoint stays unreachable, and at once,
    without a retry, when the base URL is not http(s), its port is not a port
    number, or http.client refuses a header; ApiError on HTTP failure or a
    malformed envelope, EmptyResponseError when content is blank, and
    ValueError for a non-finite temperature.  `sleep` is injectable so tests
    can skip real backoff waits.
    """
    url = config.base_url.rstrip("/") + "/chat/completions"
    try:
        parts = urllib.parse.urlsplit(url)
        _, scheme = parts.port, parts.scheme  # reading .port checks the port
    except ValueError:  # a port that is no number or past 65535, an unclosed "[" in the host
        scheme = ""
    if scheme not in ("http", "https"):
        # urllib would read a file:// URL from disk: refuse before any attempt
        raise TransportError(
            f"cannot reach {url}: the base URL must be http:// or https://, any port 0-65535"
        )
    payload: dict = {
        "model": config.model,
        "messages": [{"role": "user", "content": prompt}],
        "temperature": temperature,
    }
    if seed is not None:
        payload["seed"] = seed
    body = json.dumps(payload, allow_nan=False).encode()
    headers = {"Content-Type": "application/json"}

    last_exc: Exception | None = None
    for attempt in range(1, config.attempts + 1):
        request = urllib.request.Request(url, body, headers, method="POST")
        if config.api_key:
            # urllib follows a 301/302/303 as a GET to any host, copying the
            # plain headers; an unredirected one stays with this request
            request.add_unredirected_header("Authorization", f"Bearer {config.api_key}")
        try:
            try:
                with urllib.request.urlopen(request, timeout=config.timeout_s) as resp:
                    status, reply = resp.status, resp.read()
            except urllib.error.HTTPError as e:  # an OSError too, so caught first
                with e:
                    status, reply = e.code, e.read()
        except ValueError:  # e.g. an API key holding a newline; the message would quote it
            raise TransportError(f"cannot send a request to {url}: http.client refused a header") from None
        except (OSError, http.client.HTTPException) as e:
            last_exc = e
            if attempt < config.attempts:
                sleep(config.backoff_s * 2 ** (attempt - 1))
            continue
        if status // 100 != 2:
            raise ApiError(status, reply.decode("utf-8", "replace"))
        try:
            data = parse_json(reply.decode("utf-8"), ValueError, "")
            content = data["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError):
            text = reply.decode("utf-8", "replace")
            raise ApiError(status, f"malformed completion body: {text[:200]}") from None
        if content is None or not content.strip():
            raise EmptyResponseError("endpoint returned an empty completion")
        return content
    raise TransportError(
        f"could not reach {url} after {config.attempts} attempts: {last_exc}"
    ) from last_exc
