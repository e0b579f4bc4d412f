(** Locating the kernel a logical host currently runs on.

    Programs in V reach "their" kernel server and program manager through
    local group ids — [{my_lh, 1}] resolves to whichever host currently
    runs the logical host (Section 2.1). Simulated program bodies hold
    OCaml handles rather than send packets for every kernel call, so they
    need the same indirection in handle form: a directory maps a logical
    host id to the kernel currently hosting it. Program code must re-ask
    on every use; caching the kernel across a blocking call is exactly
    the bug transparency is meant to prevent.

    Lookups take constant time. The directory keeps a residency index
    from logical-host id to the registered kernels holding that host,
    fed by each kernel's residency hook ({!Kernel.set_residency_hook}).
    The index is built on the first lookup from the kernels' resident
    logical hosts, and only then are the hooks set; until then
    registering a kernel just records it. A kernel belongs to at most
    one directory. *)

type t

val of_kernels : unit -> t
(** An empty registry to which kernels are added as they boot. *)

val register : t -> Kernel.t -> unit
(** Add a kernel, ranked after every kernel registered before it. The
    directory takes over its residency hook; logical hosts already
    resident on it are found too. *)

val locate : t -> Ids.lh_id -> Kernel.t option
(** The kernel currently hosting the logical host, if any. When more
    than one holds it — a migration whose install acknowledgement was
    lost re-installs the host at the source while the destination may
    have installed it too — the answer is the first such kernel in
    registration order. *)

val current : t -> Ids.lh_id -> Kernel.t
(** Like {!locate}, and allocates nothing when the host is found.
    @raise Failure if the logical host is not resident anywhere — it is
    mid-migration or destroyed; simulated program bodies treat this as
    "retry after a beat". *)
