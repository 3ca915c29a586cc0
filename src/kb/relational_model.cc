#include "kb/relational_model.h"

namespace probkb {

Schema TPiSchema() {
  return Schema({{"I", ColumnType::kInt64},
                 {"R", ColumnType::kInt64},
                 {"x", ColumnType::kInt64},
                 {"C1", ColumnType::kInt64},
                 {"y", ColumnType::kInt64},
                 {"C2", ColumnType::kInt64},
                 {"w", ColumnType::kFloat64}});
}

Schema MLen2Schema() {
  return Schema({{"R1", ColumnType::kInt64},
                 {"R2", ColumnType::kInt64},
                 {"C1", ColumnType::kInt64},
                 {"C2", ColumnType::kInt64},
                 {"w", ColumnType::kFloat64}});
}

Schema MLen3Schema() {
  return Schema({{"R1", ColumnType::kInt64},
                 {"R2", ColumnType::kInt64},
                 {"R3", ColumnType::kInt64},
                 {"C1", ColumnType::kInt64},
                 {"C2", ColumnType::kInt64},
                 {"C3", ColumnType::kInt64},
                 {"w", ColumnType::kFloat64}});
}

Schema TOmegaSchema() {
  return Schema({{"R", ColumnType::kInt64},
                 {"arg", ColumnType::kInt64},
                 {"deg", ColumnType::kInt64}});
}

Schema TPhiSchema() {
  return Schema({{"I1", ColumnType::kInt64},
                 {"I2", ColumnType::kInt64},
                 {"I3", ColumnType::kInt64},
                 {"w", ColumnType::kFloat64}});
}

Schema TCSchema() {
  return Schema({{"C", ColumnType::kInt64}, {"e", ColumnType::kInt64}});
}

Schema TRSchema() {
  return Schema({{"R", ColumnType::kInt64},
                 {"C1", ColumnType::kInt64},
                 {"C2", ColumnType::kInt64}});
}

void AppendFactRow(Table* t_pi, FactId id, const Fact& fact) {
  t_pi->AppendRow({Value::Int64(id), Value::Int64(fact.relation),
                   Value::Int64(fact.x), Value::Int64(fact.c1),
                   Value::Int64(fact.y), Value::Int64(fact.c2),
                   fact.has_weight() ? Value::Float64(fact.weight)
                                     : Value::Null()});
}

Fact FactFromRow(const RowView& row) {
  Fact fact;
  fact.relation = row[tpi::kR].i64();
  fact.x = row[tpi::kX].i64();
  fact.c1 = row[tpi::kC1].i64();
  fact.y = row[tpi::kY].i64();
  fact.c2 = row[tpi::kC2].i64();
  fact.weight =
      row[tpi::kW].is_null() ? std::nan("") : row[tpi::kW].f64();
  return fact;
}

RelationalKB BuildRelationalModel(const KnowledgeBase& kb) {
  return BuildRelationalModel(kb, kb.rules());
}

RelationalKB BuildRelationalModel(const KnowledgeBase& kb,
                                  const std::vector<HornRule>& rules) {
  RelationalKB out;
  out.t_pi = Table::Make(TPiSchema());
  out.t_pi->ReserveRows(static_cast<int64_t>(kb.facts().size()));
  FactId id = 0;
  for (const Fact& f : kb.facts()) {
    AppendFactRow(out.t_pi.get(), id++, f);
  }
  out.next_fact_id = id;

  for (int i = 0; i < kNumRuleStructures; ++i) {
    out.m[static_cast<size_t>(i)] =
        Table::Make(i < 2 ? MLen2Schema() : MLen3Schema());
  }
  for (const HornRule& r : rules) {
    int idx = static_cast<int>(r.structure) - 1;
    Table* m = out.m[static_cast<size_t>(idx)].get();
    if (r.body_length() == 1) {
      m->AppendRow({Value::Int64(r.head), Value::Int64(r.body1),
                    Value::Int64(r.c1), Value::Int64(r.c2),
                    Value::Float64(r.weight)});
    } else {
      m->AppendRow({Value::Int64(r.head), Value::Int64(r.body1),
                    Value::Int64(r.body2), Value::Int64(r.c1),
                    Value::Int64(r.c2), Value::Int64(r.c3),
                    Value::Float64(r.weight)});
    }
  }

  out.t_omega = Table::Make(TOmegaSchema());
  for (const FunctionalConstraint& c : kb.constraints()) {
    out.t_omega->AppendRow({Value::Int64(c.relation),
                            Value::Int64(static_cast<int64_t>(c.type)),
                            Value::Int64(c.degree)});
  }

  out.t_c = Table::Make(TCSchema());
  for (const ClassMember& m : kb.class_members()) {
    out.t_c->AppendRow({Value::Int64(m.cls), Value::Int64(m.entity)});
  }

  out.t_r = Table::Make(TRSchema());
  for (const RelationSignature& s : kb.signatures()) {
    out.t_r->AppendRow({Value::Int64(s.relation), Value::Int64(s.domain),
                        Value::Int64(s.range)});
  }
  return out;
}

}  // namespace probkb
