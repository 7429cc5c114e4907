"""Minimal chat-completions client over HTTP, on the standard library.

Each call posts through `http.client` on a kept-alive connection.  The
process keeps at most one idle connection, keyed by scheme, host, port,
proxy and timeout; the next call to the same key reuses it, and a call to
another key closes it.  A call takes the connection out of the slot while
it runs, so a connection serves one call at a time, and two calls at once
each have one.  A reused connection that the server has meanwhile closed
fails before any status line arrives; such a call is sent once more on a
fresh connection, which is neither an attempt nor a backoff wait.  A reply
that says it will close is not kept.

Transport failures (connection refused, timeout, a dropped connection) are
retried with exponential backoff; HTTP error statuses are not retried, since
a 4xx will not get better by waiting and quota errors (429) should surface
immediately.  A 3xx reply is such an error too: nothing is ever sent to a
`Location`, so the API key cannot follow a redirect.  Proxies come from the
`*_proxy` and `no_proxy` environment variables, read through
`urllib.request.getproxies()` and `proxy_bypass()` at the first call to each
scheme and host: an http request goes to its proxy by absolute URL, an https
one through a CONNECT tunnel, and credentials in the proxy URL become
`Proxy-Authorization: Basic`.  Certificates are the system CA store or
`SSL_CERT_FILE`.
"""

from __future__ import annotations

import base64
import functools
import http.client
import json
import os
import threading
import time
import urllib.parse
import urllib.request
from dataclasses import dataclass

from scenekit.jsonio import parse_json

# How a reused connection fails when the server closed it while it was idle
# (RemoteDisconnected is a ConnectionResetError).
_STALE = (BrokenPipeError, ConnectionResetError)


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


_DEFAULT_PORTS = {"http": 80, "https": 443}


@functools.cache
def _proxy_for(scheme: str, netloc: str) -> tuple[str, int, str | None] | None:
    """(host, port, Proxy-Authorization value) of the proxy that a request
    to `netloc` goes through, or None.  ValueError for a proxy URL with no
    host or a port that is no port number.  A proxy without a port gets the
    target scheme's, as urllib gives it."""
    proxy = urllib.request.getproxies().get(scheme)
    if not proxy or urllib.request.proxy_bypass(netloc):
        return None
    via = urllib.parse.urlsplit(proxy if "://" in proxy else f"http://{proxy}")
    if not via.hostname:
        raise ValueError("the proxy URL has no host")
    port = _DEFAULT_PORTS[scheme] if via.port is None else via.port
    auth = None
    if via.username and via.password:
        user_pass = f"{urllib.parse.unquote(via.username)}:{urllib.parse.unquote(via.password)}"
        auth = "Basic " + base64.b64encode(user_pass.encode()).decode("ascii")
    return via.hostname, port, auth


def _open(key: tuple) -> http.client.HTTPConnection:
    """A new connection for `key`; it connects when it first sends."""
    scheme, host, port, proxy, timeout = key
    cls = http.client.HTTPSConnection if scheme == "https" else http.client.HTTPConnection
    if proxy is None:
        return cls(host, port, timeout=timeout)
    conn = cls(proxy[0], proxy[1], timeout=timeout)
    if scheme == "https":
        conn.set_tunnel(host, port, headers={"Proxy-Authorization": proxy[2]} if proxy[2] else None)
    return conn


_idle: tuple | None = None  # (key, connection) of the one idle connection
_idle_lock = threading.Lock()


def _take(key: tuple) -> http.client.HTTPConnection | None:
    """The idle connection for `key`, out of the slot; an idle one for
    another key is closed."""
    global _idle
    with _idle_lock:
        held, _idle = _idle, None
    if held is not None and held[0] == key:
        return held[1]
    if held is not None:
        held[1].close()
    return None


def _keep(key: tuple, conn: http.client.HTTPConnection) -> None:
    """Put `conn` in the idle slot, closing whatever it displaces."""
    global _idle
    with _idle_lock:
        held, _idle = _idle, (key, conn)
    if held is not None:
        held[1].close()


def _forget_idle() -> None:
    """In a forked child: the parent's connection is not this process's to use."""
    global _idle, _idle_lock
    _idle, _idle_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_idle)


def _post(conn, target: str, body: bytes, headers: dict) -> http.client.HTTPResponse:
    conn.request("POST", target, body, headers)
    return conn.getresponse()


def call_llm(
    config: EndpointConfig,
    prompt: str,
    temperature: float,
    seed: int | None = None,
    sleep=time.sleep,
) -> str:
    """Send one user prompt, return the assistant text.

    Raises TransportError when the endpoint stays unreachable, and at once,
    without a retry, when the base URL is not http(s) or has no host, its
    port is not a port number, or http.client refuses a header; ApiError on
    an HTTP status other than 2xx (a redirect included) or a malformed
    envelope, EmptyResponseError when content is blank, and ValueError for a
    non-finite temperature.  `sleep` is injectable so tests can skip real
    backoff waits.
    """
    url = config.base_url.rstrip("/") + "/chat/completions"
    try:
        parts = urllib.parse.urlsplit(url)
        port, scheme = parts.port, parts.scheme  # reading .port checks the port
    except ValueError:  # a port that is no number or past 65535, an unclosed "[" in the host
        scheme = ""
    if scheme not in ("http", "https") or not parts.hostname:
        raise TransportError(
            f"cannot reach {url}: the base URL must be http:// or https://, "
            "with a host and any port 0-65535"
        )
    if port is None:
        port = _DEFAULT_PORTS[scheme]
    try:
        proxy = _proxy_for(scheme, parts.netloc)
    except ValueError:  # the message would quote the proxy URL, credentials and all
        raise TransportError(f"cannot reach {url}: the {scheme}_proxy URL is malformed") from None
    key = (scheme, parts.hostname, port, proxy, config.timeout_s)
    payload: dict = {
        "model": config.model,
        "messages": [{"role": "user", "content": prompt}],
        "temperature": temperature,
    }
    if seed is not None:
        payload["seed"] = seed
    body = json.dumps(payload, allow_nan=False).encode()
    headers = {"Content-Type": "application/json"}
    if config.api_key:
        headers["Authorization"] = f"Bearer {config.api_key}"
    target = parts.path + (f"?{parts.query}" if parts.query else "")
    if proxy is not None and scheme == "http":  # no tunnel: the proxy reads the whole URL
        target = url
        if proxy[2]:
            headers["Proxy-Authorization"] = proxy[2]

    last_exc: Exception | None = None
    for attempt in range(1, config.attempts + 1):
        conn = _take(key)
        response = None
        try:
            if conn is not None:
                try:
                    response = _post(conn, target, body, headers)
                except _STALE:  # closed while idle: sent once more, fresh
                    conn.close()
            if response is None:
                conn = _open(key)
                response = _post(conn, target, body, headers)
            status, reply = response.status, response.read()
        except (ValueError, OSError, http.client.HTTPException) as e:
            if conn is not None:  # None when http.client refused the host name
                conn.close()
            if isinstance(e, ValueError):  # e.g. an API key holding a newline; the message would quote it
                raise TransportError(f"cannot send a request to {url}: http.client refused a header") from None
            last_exc = e
            if attempt < config.attempts:
                sleep(config.backoff_s * 2 ** (attempt - 1))
            continue
        if response.will_close:
            conn.close()
        else:
            _keep(key, conn)
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
