"""The request digest as json.dumps writes its canonical JSON: the
reference that request_digest's hand-built encoding must match byte for
byte, so caches written by either stay valid.  Lone surrogates pass
through the UTF-8 encoding; valid text encodes as plain UTF-8."""

import hashlib
import json


def json_digest(request) -> str:
    payload = {
        "prompt": request.prompt,
        "max_new_tokens": request.max_new_tokens,
        "temperature": request.temperature,
        "stop_sequences": list(request.stop_sequences),
        "model_name": request.model_name,
    }
    blob = json.dumps(payload, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(blob.encode("utf-8", "surrogatepass")).hexdigest()
