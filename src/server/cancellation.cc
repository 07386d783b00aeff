#include "server/cancellation.h"

namespace parj::server {

Status CancellationToken::ToStatus() const {
  switch (reason()) {
    case CancelReason::kCancelled:
      return Status::Cancelled("query cancelled by client");
    case CancelReason::kDeadlineExceeded:
      return Status::DeadlineExceeded("query deadline exceeded");
    case CancelReason::kNone:
      break;
  }
  return Status::Internal("ToStatus() on a token that was not stopped");
}

}  // namespace parj::server
