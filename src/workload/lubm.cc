#include "workload/lubm.h"

#include <string>

#include "common/rng.h"
#include "rdf/vocab.h"

namespace parj::workload {

namespace {

constexpr char kUb[] = "http://swat.cse.lehigh.edu/onto/univ-bench.owl#";

/// Builds encoded triples while interning IRIs through the dictionary.
class LubmBuilder {
 public:
  explicit LubmBuilder(uint64_t seed) : rng_(seed) {
    type_ = data_.dict.EncodePredicate(rdf::Term::Iri(rdf::vocab::kRdfType));
    sub_organization_of_ = Pred("subOrganizationOf");
    works_for_ = Pred("worksFor");
    member_of_ = Pred("memberOf");
    teacher_of_ = Pred("teacherOf");
    takes_course_ = Pred("takesCourse");
    advisor_ = Pred("advisor");
    head_of_ = Pred("headOf");
    undergrad_degree_from_ = Pred("undergraduateDegreeFrom");
    masters_degree_from_ = Pred("mastersDegreeFrom");
    doctoral_degree_from_ = Pred("doctoralDegreeFrom");
    publication_author_ = Pred("publicationAuthor");
    teaching_assistant_of_ = Pred("teachingAssistantOf");
    name_ = Pred("name");
    email_ = Pred("emailAddress");
    telephone_ = Pred("telephone");
    research_interest_ = Pred("researchInterest");

    class_university_ = Class("University");
    class_department_ = Class("Department");
    class_full_professor_ = Class("FullProfessor");
    class_associate_professor_ = Class("AssociateProfessor");
    class_assistant_professor_ = Class("AssistantProfessor");
    class_lecturer_ = Class("Lecturer");
    class_course_ = Class("Course");
    class_graduate_course_ = Class("GraduateCourse");
    class_undergraduate_student_ = Class("UndergraduateStudent");
    class_graduate_student_ = Class("GraduateStudent");
    class_publication_ = Class("Publication");
    class_research_group_ = Class("ResearchGroup");
  }

  GeneratedData Generate(int universities) {
    university_ids_.reserve(universities);
    for (int u = 0; u < universities; ++u) {
      university_ids_.push_back(
          Iri("http://www.University" + std::to_string(u) + ".edu"));
    }
    for (int u = 0; u < universities; ++u) {
      Emit(university_ids_[u], type_, class_university_);
      const int departments = static_cast<int>(rng_.UniformRange(15, 25));
      for (int d = 0; d < departments; ++d) {
        GenerateDepartment(u, d);
      }
    }
    return std::move(data_);
  }

 private:
  PredicateId Pred(const std::string& local) {
    return data_.dict.EncodePredicate(rdf::Term::Iri(kUb + local));
  }
  TermId Class(const std::string& local) {
    return data_.dict.EncodeResource(rdf::Term::Iri(kUb + local));
  }
  TermId Iri(std::string iri) {
    return data_.dict.EncodeResource(rdf::Term::Iri(std::move(iri)));
  }
  TermId Literal(std::string value) {
    return data_.dict.EncodeResource(rdf::Term::Literal(std::move(value)));
  }

  void Emit(TermId s, PredicateId p, TermId o) {
    data_.triples.push_back(EncodedTriple{s, p, o});
  }

  TermId RandomUniversity() {
    return university_ids_[rng_.Uniform(university_ids_.size())];
  }

  void EmitPersonDetails(TermId person, const std::string& base) {
    Emit(person, name_, Literal(base));
    Emit(person, email_, Literal(base + "@example.edu"));
    Emit(person, telephone_,
         Literal("xxx-xxx-" + std::to_string(rng_.Uniform(10000))));
  }

  void GenerateDepartment(int u, int d) {
    const std::string dept_base = "http://www.Department" +
                                  std::to_string(d) + ".University" +
                                  std::to_string(u) + ".edu";
    const TermId dept = Iri(dept_base);
    Emit(dept, type_, class_department_);
    Emit(dept, sub_organization_of_, university_ids_[u]);

    const int research_groups = static_cast<int>(rng_.UniformRange(10, 20));
    for (int g = 0; g < research_groups; ++g) {
      TermId group = Iri(dept_base + "/ResearchGroup" + std::to_string(g));
      Emit(group, type_, class_research_group_);
      Emit(group, sub_organization_of_, dept);
    }

    // Faculty.
    struct Faculty {
      TermId id;
      bool professor;
    };
    std::vector<Faculty> faculty;
    std::vector<TermId> professors;

    auto add_faculty = [&](const char* kind, TermId cls, int count,
                           bool professor) {
      for (int i = 0; i < count; ++i) {
        TermId person =
            Iri(dept_base + "/" + kind + std::to_string(i));
        Emit(person, type_, cls);
        Emit(person, works_for_, dept);
        EmitPersonDetails(person, std::string(kind) + std::to_string(i) +
                                      ".D" + std::to_string(d) + ".U" +
                                      std::to_string(u));
        Emit(person, undergrad_degree_from_, RandomUniversity());
        if (professor) {
          Emit(person, masters_degree_from_, RandomUniversity());
          Emit(person, doctoral_degree_from_, RandomUniversity());
          Emit(person, research_interest_,
               Literal("Research" + std::to_string(rng_.Uniform(30))));
          professors.push_back(person);
        }
        faculty.push_back(Faculty{person, professor});
      }
    };
    add_faculty("FullProfessor", class_full_professor_,
                static_cast<int>(rng_.UniformRange(7, 10)), true);
    add_faculty("AssociateProfessor", class_associate_professor_,
                static_cast<int>(rng_.UniformRange(10, 14)), true);
    add_faculty("AssistantProfessor", class_assistant_professor_,
                static_cast<int>(rng_.UniformRange(8, 11)), true);
    add_faculty("Lecturer", class_lecturer_,
                static_cast<int>(rng_.UniformRange(5, 7)), false);

    // The first full professor heads the department.
    Emit(faculty[0].id, head_of_, dept);

    // Courses: every faculty member teaches 1-2 undergraduate courses and
    // professors additionally teach 1-2 graduate courses.
    std::vector<TermId> courses;
    std::vector<TermId> graduate_courses;
    int course_counter = 0;
    int graduate_counter = 0;
    for (const Faculty& f : faculty) {
      const int teaches = static_cast<int>(rng_.UniformRange(1, 2));
      for (int c = 0; c < teaches; ++c) {
        TermId course =
            Iri(dept_base + "/Course" + std::to_string(course_counter++));
        Emit(course, type_, class_course_);
        Emit(f.id, teacher_of_, course);
        courses.push_back(course);
      }
      if (f.professor) {
        const int grad = static_cast<int>(rng_.UniformRange(1, 2));
        for (int c = 0; c < grad; ++c) {
          TermId course = Iri(dept_base + "/GraduateCourse" +
                              std::to_string(graduate_counter++));
          Emit(course, type_, class_graduate_course_);
          Emit(f.id, teacher_of_, course);
          graduate_courses.push_back(course);
        }
      }
    }

    // Undergraduate students: ratio ~8-14 per faculty member.
    const int undergrads =
        static_cast<int>(faculty.size() * rng_.UniformRange(8, 14));
    std::vector<TermId> undergrad_ids;
    undergrad_ids.reserve(undergrads);
    for (int i = 0; i < undergrads; ++i) {
      TermId student =
          Iri(dept_base + "/UndergraduateStudent" + std::to_string(i));
      Emit(student, type_, class_undergraduate_student_);
      Emit(student, member_of_, dept);
      const int takes = static_cast<int>(rng_.UniformRange(2, 4));
      for (int c = 0; c < takes; ++c) {
        Emit(student, takes_course_, courses[rng_.Uniform(courses.size())]);
      }
      if (rng_.Chance(0.2)) {
        Emit(student, advisor_, professors[rng_.Uniform(professors.size())]);
      }
      undergrad_ids.push_back(student);
    }

    // Graduate students: ratio ~3-4 per faculty member.
    const int grads =
        static_cast<int>(faculty.size() * rng_.UniformRange(3, 4));
    std::vector<TermId> grad_ids;
    grad_ids.reserve(grads);
    for (int i = 0; i < grads; ++i) {
      TermId student = Iri(dept_base + "/GraduateStudent" + std::to_string(i));
      Emit(student, type_, class_graduate_student_);
      Emit(student, member_of_, dept);
      Emit(student, undergrad_degree_from_, RandomUniversity());
      const int takes = static_cast<int>(rng_.UniformRange(1, 3));
      for (int c = 0; c < takes; ++c) {
        Emit(student, takes_course_,
             graduate_courses[rng_.Uniform(graduate_courses.size())]);
      }
      Emit(student, advisor_, professors[rng_.Uniform(professors.size())]);
      if (rng_.Chance(0.2)) {
        Emit(student, teaching_assistant_of_,
             courses[rng_.Uniform(courses.size())]);
      }
      grad_ids.push_back(student);
    }

    // Publications: every professor authors 3-8; 40% get a graduate
    // student co-author.
    int publication_counter = 0;
    for (TermId professor : professors) {
      const int pubs = static_cast<int>(rng_.UniformRange(3, 8));
      for (int i = 0; i < pubs; ++i) {
        TermId pub = Iri(dept_base + "/Publication" +
                         std::to_string(publication_counter++));
        Emit(pub, type_, class_publication_);
        Emit(pub, publication_author_, professor);
        if (!grad_ids.empty() && rng_.Chance(0.4)) {
          Emit(pub, publication_author_,
               grad_ids[rng_.Uniform(grad_ids.size())]);
        }
      }
    }
  }

  Rng rng_;
  GeneratedData data_;
  std::vector<TermId> university_ids_;

  PredicateId type_, sub_organization_of_, works_for_, member_of_,
      teacher_of_, takes_course_, advisor_, head_of_, undergrad_degree_from_,
      masters_degree_from_, doctoral_degree_from_, publication_author_,
      teaching_assistant_of_, name_, email_, telephone_, research_interest_;
  TermId class_university_, class_department_, class_full_professor_,
      class_associate_professor_, class_assistant_professor_, class_lecturer_,
      class_course_, class_graduate_course_, class_undergraduate_student_,
      class_graduate_student_, class_publication_, class_research_group_;
};

}  // namespace

GeneratedData GenerateLubm(const LubmOptions& options) {
  LubmBuilder builder(options.seed);
  return builder.Generate(options.universities);
}

std::vector<NamedQuery> LubmQueries() {
  const std::string prefix =
      "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n";
  std::vector<NamedQuery> queries;

  // L1 (heavy; cyclic join of students, departments and degree
  // universities — the Trinity.RDF-style triangle).
  queries.push_back({"LUBM1", prefix + R"(
SELECT ?x ?y ?z WHERE {
  ?x a ub:GraduateStudent .
  ?y a ub:University .
  ?z a ub:Department .
  ?x ub:memberOf ?z .
  ?z ub:subOrganizationOf ?y .
  ?x ub:undergraduateDegreeFrom ?y .
})"});

  // L2 (simple but unselective: every undergraduate enrollment).
  queries.push_back({"LUBM2", prefix + R"(
SELECT ?x ?y WHERE {
  ?x a ub:UndergraduateStudent .
  ?x ub:takesCourse ?y .
})"});

  // L3 (heavy: professor publications joined through department chain).
  queries.push_back({"LUBM3", prefix + R"(
SELECT ?x ?y ?z ?w WHERE {
  ?w ub:publicationAuthor ?x .
  ?x a ub:FullProfessor .
  ?x ub:worksFor ?y .
  ?y ub:subOrganizationOf ?z .
})"});

  // L4 (selective point query with a property star).
  queries.push_back({"LUBM4", prefix + R"(
SELECT ?x ?n ?e ?t WHERE {
  ?x ub:worksFor <http://www.Department0.University0.edu> .
  ?x a ub:FullProfessor .
  ?x ub:name ?n .
  ?x ub:emailAddress ?e .
  ?x ub:telephone ?t .
})"});

  // L5 (selective point query).
  queries.push_back({"LUBM5", prefix + R"(
SELECT ?x WHERE {
  ?x a ub:UndergraduateStudent .
  ?x ub:memberOf <http://www.Department0.University0.edu> .
})"});

  // L6 (selective: students of one specific graduate course).
  queries.push_back({"LUBM6", prefix + R"(
SELECT ?x WHERE {
  ?x a ub:GraduateStudent .
  ?x ub:takesCourse
      <http://www.Department0.University0.edu/GraduateCourse0> .
})"});

  // L7 (heavy chain: enrollments joined to teachers and departments).
  queries.push_back({"LUBM7", prefix + R"(
SELECT ?x ?y ?z WHERE {
  ?x ub:takesCourse ?y .
  ?z ub:teacherOf ?y .
  ?z ub:worksFor ?w .
  ?w ub:subOrganizationOf ?u .
})"});

  // L8 (large intermediate results, few final answers: students advised
  // by their department head who shares their degree university).
  queries.push_back({"LUBM8", prefix + R"(
SELECT ?x ?y WHERE {
  ?x ub:advisor ?y .
  ?y ub:headOf ?z .
  ?x ub:memberOf ?z .
  ?x ub:undergraduateDegreeFrom ?w .
  ?y ub:doctoralDegreeFrom ?w .
})"});

  // L9 (heaviest: the classic advisor/course triangle).
  queries.push_back({"LUBM9", prefix + R"(
SELECT ?x ?y ?z WHERE {
  ?x ub:advisor ?y .
  ?y ub:teacherOf ?z .
  ?x ub:takesCourse ?z .
})"});

  // L10 (heavy cyclic: publications whose author's doctoral university
  // hosts the author's department).
  queries.push_back({"LUBM10", prefix + R"(
SELECT ?p ?a ?d WHERE {
  ?p ub:publicationAuthor ?a .
  ?a ub:worksFor ?d .
  ?d ub:subOrganizationOf ?u .
  ?a ub:doctoralDegreeFrom ?u .
})"});

  return queries;
}

}  // namespace parj::workload
