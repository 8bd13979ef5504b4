(** Request/reply payloads of the [statsim serve] protocol.

    Every {!Frame} payload is one JSON document. A request:

    {v
    { "id": 7,                 optional client correlation id
      "op": "simulate",        required
      "deadline_ms": 5000,     optional per-request deadline
      "params": { ... } }      op-specific, defaults to {}
    v}

    A reply is either
    [{"id":7,"status":"ok","result":{...}}] or
    [{"id":7,"status":"error","error":{"code":"...","message":"..."}}].
    The [id] is echoed verbatim when the request carried one, so a
    client may pipeline several requests on one connection and match
    replies arriving in completion order. *)

type request = {
  id : int option;
  op : string;
  deadline_ms : int option;
  params : Telemetry.Json.t;
}

type error_code =
  | Bad_request  (** malformed frame/JSON, unknown op, bad params *)
  | Overloaded  (** admission queue full — retry later *)
  | Deadline_exceeded  (** the request's [deadline_ms] expired *)
  | Cancelled  (** the client vanished mid-request *)
  | Internal  (** the op raised; the daemon survives *)

val code_name : error_code -> string
(** ["bad_request"], ["overloaded"], ["deadline_exceeded"],
    ["cancelled"], ["internal"]. *)

val request_to_string : request -> string
(** The request JSON document (not yet framed). *)

val parse_request : string -> (request, string) result
(** Parse and validate one request payload with hardened JSON limits
    (depth 64, strings capped at 1 MiB): [op] must be a string, [id] an
    integral number, [deadline_ms] a non-negative integral number. *)

val ok_reply : id:int option -> Telemetry.Json.t -> string
val error_reply : id:int option -> error_code -> string -> string

type reply = {
  reply_id : int option;
  outcome : (Telemetry.Json.t, error_code * string) result;
      (** [Ok result], or the error code and human-readable message *)
}

val parse_reply : string -> (reply, string) result
(** Client-side decode of one reply payload. Unknown error codes map to
    {!Internal} rather than failing, so old clients survive new server
    codes. *)
