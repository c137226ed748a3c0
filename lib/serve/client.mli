(** Minimal blocking client for the verification daemon.

    Line-oriented over the daemon's Unix-domain socket. {!request} is the
    simple call-response path; {!send}/{!recv} decouple the two halves so a
    harness can keep a window of requests in flight on one connection (the
    chaos bench's closed-loop load generator). *)

type t

val connect : ?wait:float -> string -> (t, string) result
(** Connect to the daemon's socket, retrying for up to [wait] seconds
    (default 2) — covers the race against a daemon that is still starting. *)

val of_fd : Unix.file_descr -> t
(** A client over an already connected stream socket (a socketpair end in
    tests). {!close} closes [fd]. *)

val send : t -> Request.t -> (unit, string) result
(** Write one request line. *)

val recv : t -> (Request.response, string) result
(** Read the next response line, whichever request it answers (blocking). *)

val request : t -> Request.t -> (Request.response, string) result
(** [send] then [recv] until the response matching the request's id arrives
    (responses to id [""] — daemon-level parse errors — also surface). *)

val close : t -> unit
