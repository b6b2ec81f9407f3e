open Mrpa_core

type reason = Deadline | Fuel | Memory | Cancelled | Limit | Shard_unavailable
type verdict = Complete | Partial of reason

let of_guard = function
  | Guard.Deadline -> Deadline
  | Guard.Fuel -> Fuel
  | Guard.Memory -> Memory
  | Guard.Cancelled -> Cancelled

let reason_name = function
  | Deadline -> "deadline"
  | Fuel -> "fuel"
  | Memory -> "memory"
  | Cancelled -> "cancelled"
  | Limit -> "limit"
  | Shard_unavailable -> "shard_unavailable"

let reason_of_name = function
  | "deadline" -> Some Deadline
  | "fuel" -> Some Fuel
  | "memory" -> Some Memory
  | "cancelled" -> Some Cancelled
  | "limit" -> Some Limit
  | "shard_unavailable" -> Some Shard_unavailable
  | _ -> None

let verdict_name = function
  | Complete -> "complete"
  | Partial r -> "partial:" ^ reason_name r

let exit_ok = 0
let exit_user_error = 1
let exit_internal_error = 2
let exit_partial = 3
let exit_code = function Complete -> exit_ok | Partial _ -> exit_partial
