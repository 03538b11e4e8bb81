#include "src/runtime/database.h"

#include <algorithm>

#include "src/runtime/error.h"

namespace ldb {

namespace {

// `object` on the class's shared shape when its field names match the
// class's attributes in order; otherwise unchanged (it keeps its own).
Value OnClassShape(Value object, const ShapePtr& shape) {
  const TupleView t = object.AsTuple();
  if (&t.shape() == shape.get() || !t.shape().SameNames(*shape)) return object;
  Value* out;
  Value shared = Value::NewTuple(shape, &out);
  for (size_t i = 0; i < t.size(); ++i) out[i] = t.value(i);
  return shared;
}

}  // namespace

Value Database::Insert(const std::string& class_name, Value object) {
  const ClassDecl* decl = schema_.FindClass(class_name);
  if (decl == nullptr) throw TypeError("unknown class '" + class_name + "'");
  if (object.kind() != Value::Kind::kTuple) {
    throw EvalError("object must be a tuple: " + object.ToString());
  }
  ClassStore& store = objects_[class_name];
  if (!store.shape) {
    store.id = InternClassName(class_name);
    std::vector<std::string> names;
    for (const auto& [attr, type] : decl->attributes) names.push_back(attr);
    store.shape = std::make_shared<const Shape>(std::move(names));
  }
  Value ref = Value::MakeRef(store.id, static_cast<int64_t>(store.objects.size()));
  store.objects.push_back(OnClassShape(std::move(object), store.shape));
  if (!decl->extent.empty()) extents_[decl->extent].push_back(ref);
  return ref;
}

void Database::Update(const Value& ref, Value object) {
  const Ref r = ref.AsRef();
  auto it = objects_.find(r.class_name());
  if (it == objects_.end() || r.oid < 0 ||
      r.oid >= static_cast<int64_t>(it->second.objects.size())) {
    throw EvalError("dangling reference " + ref.ToString());
  }
  it->second.objects[static_cast<size_t>(r.oid)] =
      OnClassShape(std::move(object), it->second.shape);
}

const std::vector<Value>& Database::ObjectsOf(
    const std::string& class_name) const {
  auto it = objects_.find(class_name);
  if (it == objects_.end()) {
    throw EvalError("no objects of class " + class_name);
  }
  return it->second.objects;
}

const Shape* Database::ClassShape(const std::string& class_name) const {
  auto it = objects_.find(class_name);
  return it == objects_.end() ? nullptr : it->second.shape.get();
}

const Value& Database::Deref(const Ref& ref) const {
  auto it = objects_.find(ref.class_name());
  if (it == objects_.end() || ref.oid < 0 ||
      ref.oid >= static_cast<int64_t>(it->second.objects.size())) {
    throw EvalError("dangling reference " + ref.class_name() + "#" +
                    std::to_string(ref.oid));
  }
  return it->second.objects[static_cast<size_t>(ref.oid)];
}

const std::vector<Value>& Database::Extent(const std::string& extent_name) const {
  if (!schema_.IsExtent(extent_name)) {
    throw TypeError("unknown extent '" + extent_name + "'");
  }
  static const std::vector<Value> kEmpty;
  auto it = extents_.find(extent_name);
  return it == extents_.end() ? kEmpty : it->second;
}

Value Database::Navigate(const Value& v, const std::string& attr) const {
  if (v.is_null()) return Value::Null();
  if (v.kind() == Value::Kind::kRef) {
    return Deref(v.AsRef()).Field(attr);
  }
  return v.Field(attr);
}

size_t Database::ObjectCount() const {
  size_t n = 0;
  for (const auto& [cls, store] : objects_) n += store.objects.size();
  return n;
}

void Database::BuildIndex(const std::string& extent_name,
                          const std::string& attr) {
  const ClassDecl* cls = schema_.FindExtent(extent_name);
  if (cls == nullptr) throw TypeError("unknown extent '" + extent_name + "'");
  if (!cls->AttributeType(attr)) {
    throw TypeError("class " + cls->name + " has no attribute '" + attr + "'");
  }
  IndexMap index;
  for (const Value& ref : Extent(extent_name)) {
    const Value& key = Deref(ref.AsRef()).Field(attr);
    if (key.is_null()) continue;  // equality with NULL never matches
    index[key].push_back(ref);
  }
  indexes_[IndexKey{extent_name, attr}] = std::move(index);
}

bool Database::HasIndex(const std::string& extent_name,
                        const std::string& attr) const {
  return indexes_.count(IndexKey{extent_name, attr}) > 0;
}

const std::vector<Value>& Database::IndexLookup(const std::string& extent_name,
                                                const std::string& attr,
                                                const Value& key) const {
  static const std::vector<Value> kEmpty;
  auto it = indexes_.find(IndexKey{extent_name, attr});
  if (it == indexes_.end()) {
    throw EvalError("no index on " + extent_name + "." + attr);
  }
  auto hit = it->second.find(key);
  return hit == it->second.end() ? kEmpty : hit->second;
}

void Database::DeclareIndex(const std::string& extent_name,
                            const std::string& attr) {
  const ClassDecl* cls = schema_.FindExtent(extent_name);
  if (cls == nullptr) throw TypeError("unknown extent '" + extent_name + "'");
  if (!cls->AttributeType(attr)) {
    throw TypeError("class " + cls->name + " has no attribute '" + attr + "'");
  }
  IndexKey key{extent_name, attr};
  for (const IndexKey& d : declared_) {
    if (d == key) return;
  }
  declared_.push_back(std::move(key));
}

std::vector<std::pair<std::string, std::string>> Database::IndexSpecs() const {
  std::vector<IndexKey> out;
  for (const auto& [key, index] : indexes_) out.push_back(key);
  for (const IndexKey& d : declared_) {
    if (indexes_.count(d) == 0) out.push_back(d);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void RebuildIndexes(Database& db) {
  for (const auto& [extent, attr] : db.IndexSpecs()) {
    if (!db.HasIndex(extent, attr)) db.BuildIndex(extent, attr);
  }
}

}  // namespace ldb
