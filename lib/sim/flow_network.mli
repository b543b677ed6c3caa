(** Fluid network model with max-min fair bandwidth sharing.

    This is the same steady-state model as SimGrid's default network
    model: each active flow follows a route (a set of links); rates are
    assigned by progressive filling — repeatedly saturate the most
    contended link, splitting its remaining capacity equally among its
    unfrozen flows — which yields the max-min fair allocation.

    The module only computes rates; timing is the engine's business.
    Each flow carries a caller payload (['a]), so the engine maps a rate
    straight back to its own flow state. One {!rates} call costs time in
    the links the active flows use, not in the network's link count;
    removing a flow is O(1). *)

type 'a t

val create : capacities:float array -> 'a t
(** One network with [Array.length capacities] links.
    @raise Invalid_argument on a non-positive capacity. *)

type 'a flow
(** Handle on an active flow. *)

val data : 'a flow -> 'a
(** The payload given to {!add_flow}. *)

val add_flow : 'a t -> ?cap:float -> int list -> 'a -> 'a flow
(** [add_flow t ?cap route data] registers a flow traversing the given
    links (duplicates ignored), optionally bounded by a per-flow rate
    cap — used to model the aggregate NIC capacity of the endpoints,
    independent of fabric contention. An empty route with no cap means
    the flow is only bounded by [max_rate].
    @raise Invalid_argument on an unknown link id or non-positive cap. *)

val remove_flow : 'a t -> 'a flow -> unit
(** Unregister. Removing twice is an error.
    @raise Invalid_argument if the flow is not active. *)

val rates : 'a t -> ('a flow * float) list
(** Max-min fair rate of every active flow, bytes/s, newest flow first.
    Flows with an empty route get [max_rate]. *)

val rate : 'a t -> 'a flow -> float
(** Rate of one flow (computes the global allocation; prefer {!rates}
    when querying many).
    @raise Invalid_argument if the flow is not active. *)

val max_rate : float
(** Rate cap for flows with an empty route (1e18 — effectively
    unbounded). *)
