#include "smt/ir.h"
#include "smt/mini_backend.h"
#include "smt/z3_backend.h"
#include "util/error.h"

namespace cs::smt {

std::unique_ptr<Backend> make_backend(BackendKind kind) {
  switch (kind) {
    case BackendKind::kZ3:
      return std::make_unique<Z3Backend>();
    case BackendKind::kMiniPb:
      return std::make_unique<MiniBackend>();
  }
  throw util::InternalError("unknown backend kind");
}

const char* backend_name(BackendKind kind) {
  switch (kind) {
    case BackendKind::kZ3:
      return "z3";
    case BackendKind::kMiniPb:
      return "minipb";
  }
  throw util::InternalError("unknown backend kind");
}

BackendKind backend_from_name(const std::string& name) {
  for (const BackendKind kind : {BackendKind::kZ3, BackendKind::kMiniPb})
    if (name == backend_name(kind)) return kind;
  throw util::SpecError("unknown backend '" + name + "' (use z3|minipb)");
}

}  // namespace cs::smt
